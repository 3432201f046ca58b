"""Program container tests."""

import pytest

from repro.isa import encodings as enc
from repro.isa.assembler import Assembler, AssemblyError


def sample_program():
    asm = Assembler(base=0x1000)
    asm.label("main")
    asm.emit(enc.nop(2))
    asm.emit(enc.halt())
    asm.data("blob", b"\x01\x02")
    return asm.assemble(entry="main")


def test_at_and_fetch():
    prog = sample_program()
    assert prog.at(0x1000).mnemonic == "nop2"
    assert prog.at(0x1001) is None  # mid-instruction
    assert prog.fetch(0x1002).mnemonic == "halt"
    with pytest.raises(KeyError):
        prog.fetch(0x9999)


def test_has_code():
    prog = sample_program()
    assert prog.has_code(0x1000)
    assert not prog.has_code(0x1001)


def test_iter_is_address_ordered():
    asm = Assembler(base=0x1000)
    asm.org(0x2000)
    asm.label("late")
    asm.emit(enc.halt())
    asm.org(0x1000)
    asm.label("early")
    asm.emit(enc.halt())
    prog = asm.assemble(entry="early")
    addrs = [i.addr for i in prog.iter_instructions()]
    assert addrs == sorted(addrs)


def test_entry_resolution():
    prog = sample_program()
    assert prog.entry == prog.addr_of("main")


def test_data_image():
    prog = sample_program()
    addr = prog.addr_of("blob")
    assert prog.data[addr] == b"\x01\x02"


def test_kernel_range_queries():
    prog = sample_program()
    prog.mark_kernel(0x5000, 0x6000)
    assert prog.is_kernel_code(0x5000)
    assert prog.is_kernel_code(0x5FFF)
    assert not prog.is_kernel_code(0x6000)


def test_patch_data_validation():
    asm = Assembler()
    asm.reserve("small", 4)
    asm.label("code")
    asm.emit(enc.halt())
    with pytest.raises(AssemblyError):
        asm.patch_data("small", b"123456789")  # exceeds reservation
    with pytest.raises(AssemblyError):
        asm.patch_data("code", b"x")  # not a data symbol
    asm.patch_data("small", b"ab")
    prog = asm.assemble()
    assert prog.data[prog.addr_of("small")] == b"ab"
