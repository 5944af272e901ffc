"""A seeded kernel-language program generator for the toolchain fuzz.

``generate(seed)`` composes a ``main`` from snippet templates over a
shared heap buffer and a two-node struct list: loops, struct fields,
direct and indirect calls, ``new`` arrays, branches and adjacent-word
accesses — the instruction shapes the compiler, the ATOM rewriter and
the lowered machine must all handle.  ``test_lowered_equivalence`` holds
the machine to its reference on the 24 seeds, and
``test_machine_call_budget`` measures its call budget on them.
"""

import random

HEADER = """
struct Node { val; next: Node; }

func visit(n: Node) {
  n.val = n.val + 1;
  return n.val;
}

func twice(x) { return x + x; }
"""

#: Statement templates; each is a function of the RNG.  All write into
#: the shared arrays/structs set up by the harness below.
SNIPPETS = [
    lambda r: ("  for (i = 0; i < {n}; i += 1) {{ buf[i] = i; }}"
               .format(n=r.randint(2, 6))),
    lambda r: ("  for (i = 0; i < {n}; i += 1) {{ s = s + buf[i]; }}"
               .format(n=r.randint(2, 6))),
    lambda r: ("  for (i = 0; i < {n}; i += 1) {{ buf[i * 2] = buf[i]; }}"
               .format(n=r.randint(2, 4))),
    lambda r: "  node.val = node.val + {k};".format(k=r.randint(1, 9)),
    lambda r: "  s = s + node.next.val;",
    lambda r: "  s = s + visit(node);",
    lambda r: "  f = visit; s = s + f(node);",
    lambda r: "  f = twice; s = s + f({k});".format(k=r.randint(1, 9)),
    lambda r: "  tmp = new [{n}]; tmp[0] = s; s = s + tmp[0];"
              .format(n=r.randint(1, 4)),
    lambda r: ("  buf[{a}] = buf[{b}] + buf[{c}];"
               .format(a=r.randint(0, 11), b=r.randint(0, 11),
                       c=r.randint(0, 11))),
    lambda r: ("  if (s < {k}) {{ s = s + 1; }} else {{ s = s + 2; }}"
               .format(k=r.randint(1, 50))),
    # Adjacent-word accesses within one block.
    lambda r: ("  for (i = 0; i < {n}; i += 1) "
               "{{ buf[i * 2] = i; buf[i * 2 + 1] = i; }}"
               .format(n=r.randint(2, 5))),
    lambda r: ("  buf[{a}] = s; buf[{a} + 1] = s; buf[{a} + 2] = s;"
               .format(a=r.randint(0, 8))),
    lambda r: ("  s = s + buf[{a}] + buf[{a} + 1];"
               .format(a=r.randint(0, 10))),
]


def generate(seed: int) -> str:
    r = random.Random(seed)
    body = "\n".join(r.choice(SNIPPETS)(r) for _ in range(r.randint(4, 10)))
    return (HEADER + """
func main() {
  local i; local s; local f; local tmp; local buf; local node: Node;
  buf = new [24];
  node = new Node;
  node.next = new Node;
  s = 0;
""" + body + """
  return s;
}
""")
