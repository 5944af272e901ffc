"""Golden bytes of the linked kernel binaries, plain and instrumented.

Table 2's counts, ``repro table2`` and ``repro disasm`` are all read off
these binaries, so any change to how a kernel is written down (AST
constructors or source text), parsed, compiled or linked must leave the
disassembly of every image byte-identical.  The digests below are the
sha256 of ``disassemble(binary_for(app, regalloc=ra))`` and of
``disassemble(AtomRewriter().instrument(...))`` of the same image, captured
on the commit before the Table 2 kernels moved from AST builders to
kernel-language source.  Regenerate (only from a commit whose binaries are
the reference) with ``PYTHONPATH=src python -m
tests.instrument.test_kernel_binaries_golden``.
"""

import hashlib

import pytest

from repro.instrument.asm import disassemble
from repro.instrument.atom import AtomRewriter
from repro.instrument.binaries import binary_for

#: (app, regalloc) -> (plain image digest, instrumented image digest).
GOLDEN = {
    ("fft", "naive"): (
        "7556bb78287d6a9dcbeb7a37ce04efe07ac9c09ce8c89c2325d262331cd6b759",
        "dbd41b368fce8706b241e0f76732b65c8c4044634ab045ae4b528da8e18ebc9c"),
    ("fft", "linear"): (
        "689f2e6e553576adf80e6d9915d2c6e60378f15757c3f9039a0acd62e4baccd9",
        "59917c2a50c9f2140c70a6c9d34f8bc11f85cc8b16be6729ee87ab6071ede4ca"),
    ("sor", "naive"): (
        "07dd23942aef28b491d4515fdfd561cb79ec4c3d3c084c264a03b226d564f28e",
        "c1a7301ab596ca3280e8ad54988c8ff4b5a6d768bc606c4af69f4cb12f5b16aa"),
    ("sor", "linear"): (
        "fb8119524f7285e2de08e9f9b47ad11364f50a8f56375d61152010ccd62a704b",
        "8e6430404f82133b6bc03bbe784ade44e004f4f2b0e11902f096c8440c11295e"),
    ("tsp", "naive"): (
        "4333eac730b239804f981379fa05af0e85282a4c2bb651f04f3617f911601c10",
        "94c23eaefc51ebba669f1a0d27c48042f0f17f956dc2f1e23430a56ad2dd18af"),
    ("tsp", "linear"): (
        "fef8be2f8a2992040e7aecfdb7138cf6c1cb825aa37e96cd738a99ae5f0eb5b2",
        "1b0bc2b412a5be1a77e9a6a0e2baa89b698f99680536f2d6fbeb917eb6ed206f"),
    ("water", "naive"): (
        "9330ceec4c555c875136f93287e999ae95863aafeae36a623d87cbed2fedee10",
        "322383714920de7f04d1a0c9e5ccd18690b97ddb8e90a978ed2519a8c2b8b62c"),
    ("water", "linear"): (
        "a90274d98106d405fc0db65e6ad00809fd8f670c6a3b5d8c3a85bc330c732410",
        "8eaea8b607b12828f36aab116ae2d74404d4d5b2335a4bdacdb9688915e226b1"),
    ("lu", "naive"): (
        "17b4ee547916a2445940af597d744be704a9d769abb067c32bb7e3c58cb90512",
        "af6605936b3507b912ede71187110268be1d66e250f1a0bf60b1c1d4b662d6d7"),
    ("lu", "linear"): (
        "7fa0b3cdecd3f002f11d04feadc404940e210ab5c06c7393e5a36ab01a9aa353",
        "a9eb8098752598d2d67727bf157801e1dec2bb5f52781a95aa7711bb4e2b78ae"),
}


def digests(app, regalloc):
    image = binary_for(app, regalloc=regalloc)
    return tuple(hashlib.sha256(disassemble(img).encode()).hexdigest()
                 for img in (image, AtomRewriter().instrument(image)))


@pytest.mark.parametrize("app,regalloc", sorted(GOLDEN))
def test_kernel_binary_bytes(app, regalloc):
    plain, instrumented = digests(app, regalloc)
    want_plain, want_instrumented = GOLDEN[app, regalloc]
    assert plain == want_plain, f"{app}/{regalloc}: linked image moved"
    assert instrumented == want_instrumented, \
        f"{app}/{regalloc}: instrumented image moved"


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        print(f"    {key!r}: {digests(*key)!r},")
