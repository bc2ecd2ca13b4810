"""The instruction set of the repro register machine.

Opcodes mirror the Dalvik shapes that matter to BombDroid's analysis:
the qualified-condition finder looks for ``IF_EQ``/``IF_NE``/
``IF_EQZ``/``IF_NEZ``/``SWITCH`` (the paper's ``IFEQ``, ``IFNE``,
``IF_ICMPEQ``, ``IF_ICMPNE``, ``TABLESWITCH``), and the instrumenter
splices around them.
"""

from __future__ import annotations

import enum


class Op(enum.Enum):
    """Every opcode understood by the interpreter and serializer."""

    # Members are singletons and compare by identity, so the C identity
    # hash is exact and skips ``Enum.__hash__``, a Python-level call, on
    # every opcode set and dict lookup.  Nothing iterates a set of
    # opcodes into an output, so the address-based order never shows.
    __hash__ = object.__hash__

    # -- data movement ----------------------------------------------------
    NOP = "nop"
    CONST = "const"          # dst <- literal (int / bool / str / bytes / null)
    MOVE = "move"            # dst <- src

    # -- arithmetic / logic (register, register) ---------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"              # dst <- -a
    NOT = "not"              # dst <- ~a (ints) / logical not (bools)
    CMP = "cmp"              # dst <- -1/0/1 three-way compare

    # -- arithmetic with a literal operand ----------------------------------
    ADD_LIT = "add_lit"
    SUB_LIT = "sub_lit"
    MUL_LIT = "mul_lit"
    DIV_LIT = "div_lit"
    REM_LIT = "rem_lit"
    AND_LIT = "and_lit"
    OR_LIT = "or_lit"
    XOR_LIT = "xor_lit"

    # -- control flow -------------------------------------------------------
    GOTO = "goto"
    IF_EQ = "if_eq"          # if a == b goto target
    IF_NE = "if_ne"
    IF_LT = "if_lt"
    IF_GE = "if_ge"
    IF_GT = "if_gt"
    IF_LE = "if_le"
    IF_EQZ = "if_eqz"        # if a == 0/false/null goto target
    IF_NEZ = "if_nez"
    IF_LTZ = "if_ltz"
    IF_GEZ = "if_gez"
    SWITCH = "switch"        # jump via {constant: label} table, else fall through
    RETURN = "return"        # return register a
    RETURN_VOID = "return_void"
    THROW = "throw"          # raise with message in register a

    # -- objects and fields --------------------------------------------------
    NEW_INSTANCE = "new_instance"  # dst <- new <value: class name>
    IGET = "iget"            # dst <- obj.a [field <value>]
    IPUT = "iput"            # obj.b [field <value>] <- a
    SGET = "sget"            # dst <- static field <value: "Class.field">
    SPUT = "sput"            # static field <value> <- a

    # -- arrays ----------------------------------------------------------------
    NEW_ARRAY = "new_array"  # dst <- new array of length in a
    AGET = "aget"            # dst <- arr[a=arr reg][b=index reg]
    APUT = "aput"            # arr[b=index] <- a  (dst = array register)
    ARRAY_LEN = "array_len"  # dst <- len(a)

    # -- invocation ---------------------------------------------------------------
    INVOKE = "invoke"        # dst? <- call <value: "Class.method">(args...)

    # -- pseudo --------------------------------------------------------------------
    LABEL = "label"          # branch target marker; no runtime effect


#: Two-register equality-shaped branches -- candidate qualified conditions
#: when one side is a constant.
EQUALITY_BRANCHES = frozenset({Op.IF_EQ, Op.IF_NE})

#: One-register zero tests; qualified when the register holds the result
#: of an equality-style comparison or a boolean constant assignment.
ZERO_BRANCHES = frozenset({Op.IF_EQZ, Op.IF_NEZ, Op.IF_LTZ, Op.IF_GEZ})

#: All conditional branches.
CONDITIONAL_BRANCHES = frozenset(
    {
        Op.IF_EQ,
        Op.IF_NE,
        Op.IF_LT,
        Op.IF_GE,
        Op.IF_GT,
        Op.IF_LE,
        Op.IF_EQZ,
        Op.IF_NEZ,
        Op.IF_LTZ,
        Op.IF_GEZ,
    }
)

#: Instructions that terminate a basic block.
TERMINATORS = frozenset(
    CONDITIONAL_BRANCHES | {Op.GOTO, Op.SWITCH, Op.RETURN, Op.RETURN_VOID, Op.THROW}
)

#: Instructions that never fall through to the next instruction.
UNCONDITIONAL_EXITS = frozenset({Op.GOTO, Op.RETURN, Op.RETURN_VOID, Op.THROW})

#: Register-register arithmetic opcodes, keyed for the builder/assembler.
BINOPS = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.CMP}
)

#: Register-literal arithmetic opcodes.
LIT_BINOPS = frozenset(
    {Op.ADD_LIT, Op.SUB_LIT, Op.MUL_LIT, Op.DIV_LIT, Op.REM_LIT, Op.AND_LIT, Op.OR_LIT, Op.XOR_LIT}
)

_BY_MNEMONIC = {op.value: op for op in Op}


def from_mnemonic(name: str) -> Op:
    """Look up an opcode by its assembly mnemonic."""
    try:
        return _BY_MNEMONIC[name]
    except KeyError:
        raise KeyError(f"unknown mnemonic {name!r}") from None
