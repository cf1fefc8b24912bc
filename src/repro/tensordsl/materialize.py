"""Expression materialization: fuse an expression tree into per-tile codelets.

Materialization is where symbolic execution meets the dataflow graph: the
whole expression tree becomes ONE generated codelet per tile (delayed
materialization, Sec. III-C), evaluated over the tile's shards with exact
working-precision semantics:

- ``float32`` ops run on NumPy float32 arrays (IEEE RN, same as IPU f32),
- ``dw`` ops run the Joldes et al. kernels on (hi, lo) float32 pairs,
- ``float64`` ops run on NumPy float64 (bit-equal to a correct soft-float).

Broadcasting follows NumPy rules — scalar shards are size-1 arrays that
broadcast inside the codelet, avoiding materializing expanded tensors
(exactly the paper's approach).

A tree compiles once, into one three-address :class:`Program` (:data:`OPS`):
first the float32 opcodes (:data:`F32_OPS`), then the precision
conversions, batch expansion and double-word ops.  The numpy interpreter,
``program(resolve)``, runs any program: it is the per-tile codelets'
evaluator, the fused kernels' numpy ops, and the native evaluators' oracle
and fallback.  :meth:`Program.bind` renders a program whose every node has
one RHS for ``native.c``: a float32 one for ``repro_eval_f32``, any other
for ``repro_eval_dw``, which runs every opcode but the batch expansions.
"""

from __future__ import annotations

import functools
import operator
from functools import cache, cached_property

import numpy as np

from repro.dw import joldes
from repro.dw.eft import from_float64, two_prod
from repro.graph.codelet import (
    BatchReduceSpec,
    Codelet,
    ElementwiseSpec,
    ReduceSpec,
    VertexGroup,
)
from repro.tensordsl.expression import BinExpr, ConstExpr, ConvertExpr, Expr, Leaf, UnExpr
from repro.tensordsl.types import RANK, Type, promote

__all__ = [
    "F32_OPS",
    "OPS",
    "Program",
    "compile_expr",
    "native_eval",
    "native_dw_eval",
    "vector_f32",
    "assignment_evaluator",
    "elementwise_group",
    "partial_reduce_group",
    "combine_codelet",
    "batch_reduce_group",
    "category_for",
    "worker_chunks",
]


# -- value representation helpers ------------------------------------------------------
# float32 / float64 values are NumPy arrays (or scalars); dw values are
# (hi, lo) tuples of float32 arrays.


def _dw_view64(value):
    return np.asarray(value[0], np.float64) + np.asarray(value[1], np.float64)


#: A float32 or float64 value as a double word: the package's one split.
_to_dw = from_float64


def _dw_sqrt(value):
    """Vectorized double-word square root (one Newton refinement)."""
    hi = np.asarray(value[0], np.float32)
    lo = np.asarray(value[1], np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.sqrt(hi)
        ph, pl = two_prod(s0, s0)
        rh, rl = joldes.sub_dw_dw(hi, lo, ph, pl)
        ch, cl = joldes.div_dw_fp(rh, rl, np.float32(2.0) * s0)
        oh, ol = joldes.add_dw_fp(ch, cl, s0)
    zero = hi == 0
    oh = np.where(zero, np.float32(0), oh)
    ol = np.where(zero, np.float32(0), ol)
    return oh, ol


def _dw_abs(value):
    hi, lo = value
    neg = hi < 0
    return np.where(neg, -hi, hi), np.where(neg, -lo, lo)


def _compare(cmp):
    return lambda left, right: cmp(left, right).astype(np.float32)


def _dw_binary(fn):
    return lambda left, right: fn(left[0], left[1], right[0], right[1])


# -- the expression program --------------------------------------------------------------

#: Opcodes of ``native.c``'s ``repro_eval_f32``, in its order: a copy, the
#: unary ops, the arithmetic ops and the comparisons.
F32_OPS = ("copy", "neg", "abs", "sqrt", "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=")

#: Every opcode's numpy form, in opcode order: :data:`F32_OPS` (over
#: float32 or float64 values), then the opcodes only the interpreter runs —
#: the precision conversions (``src`` to ``dst`` is ``f"{src} to {dst}"``),
#: the trailing-batch expansion and the double-word ops.  Expanding appends
#: a length-1 axis, so an unbatched operand broadcasts against a
#: ``(n, batch)`` value (numpy aligns trailing axes: a bare ``(n,)`` would
#: pair ``n`` with ``batch``).  A double-word comparison is
#: ``"dw to float64"`` of each operand, then the comparison.
_NUMPY = {
    "copy": lambda value: value,
    "neg": operator.neg,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "<": _compare(np.less),
    "<=": _compare(np.less_equal),
    ">": _compare(np.greater),
    ">=": _compare(np.greater_equal),
    "==": _compare(np.equal),
    "!=": _compare(np.not_equal),
    "float64 to float32": lambda value: np.asarray(value, dtype=np.float32),
    "float32 to float64": lambda value: np.asarray(value, dtype=np.float64),
    "float32 to dw": _to_dw,
    "float64 to dw": _to_dw,
    "dw to float32": lambda value: _dw_view64(value).astype(np.float32),
    "dw to float64": _dw_view64,
    "expand": lambda value: np.asarray(value)[..., None],
    "dw expand": lambda value: (np.asarray(value[0])[..., None], np.asarray(value[1])[..., None]),
    "dw neg": lambda value: (-value[0], -value[1]),
    "dw abs": _dw_abs,
    "dw sqrt": _dw_sqrt,
    "dw +": _dw_binary(joldes.add_dw_dw),
    "dw -": _dw_binary(joldes.sub_dw_dw),
    "dw *": _dw_binary(joldes.mul_dw_dw),
    "dw /": _dw_binary(joldes.div_dw_dw),
}
#: Every opcode by number: :data:`F32_OPS` keep ``native.c``'s.
OPS = tuple(_NUMPY)
_OPCODE = {op: code for code, op in enumerate(OPS)}
_RUN = tuple(_NUMPY.values())
_COMPARISONS = frozenset(F32_OPS[8:])

#: Operand modes of an instruction (``native.c``'s ``VEC, TMP, UNI, OUT, NONE``).
_VEC, _TMP, _UNI, _OUT, _NONE = range(5)
#: Floats per temporary: the longest run of elements one instruction
#: evaluates at a time (at least 128, the longest piece a sum evaluates).
_BLOCK = 1024
#: ``native.c``'s representation codes (``R32, RDW, R64``): a value's
#: :data:`repro.tensordsl.types.RANK`.
_R32, _RDW, _R64 = (RANK[t] for t in (Type.FLOAT32, Type.DOUBLEWORD, Type.FLOAT64))
_NUMPY_DTYPE = {_R32: np.float32, _RDW: np.float32, _R64: np.float64}


class Program:
    """An expression tree as a three-address program: the one compiled
    form of a tree (:func:`compile_expr`).

    ``code`` holds one ``(opcode, a, b)`` per instruction (:data:`OPS`) in
    post order; instruction ``k`` defines ``("tmp", k)`` and the last one is
    the tree's value.  An operand is ``("leaf", i)`` (``leaves[i]``, a
    variable), ``("const", i)`` (``consts[i]``, in its node's
    representation), ``("tmp", k)``, or ``None`` for a unary op's second
    operand.  ``native`` is whether every node has one RHS: only such a
    program :meth:`bind` renders for ``native.c``; ``f32`` whether every
    node is float32 too, the programs ``repro_eval_f32`` runs.

    ``program(resolve)`` is the numpy interpreter, the native evaluator's
    oracle and fallback: each instruction calls its opcode's numpy / Joldes
    function, with leaves supplied by ``resolve(leaf)`` in their variable's
    representation (an array, or a (hi, lo) pair for dw).
    """

    def __init__(self, code: tuple, leaves: tuple, consts: tuple, native: bool, f32: bool):
        self.code, self.leaves, self.consts, self.native = code, leaves, consts, native
        self.f32 = native and f32
        self._schedules: dict = {}

    def __call__(self, resolve):
        nodes, steps, tail = self._registers
        regs = [resolve(leaf) for leaf in nodes]
        regs += tail
        for fn, dst, a, b in steps:
            regs[dst] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        return regs[dst]

    @cached_property
    def _registers(self) -> tuple:
        """The interpreter's leaves, its ``(fn, dst, a, b)`` steps over one
        register file — the leaves, the constants, then the temporaries —
        and the file after the leaves, worked out on the first call (a
        program the native evaluator runs may never need them).  A
        temporary is read once (the code is a tree), so its reader's value
        takes its slot: the file holds no more arrays at a time than the
        tree has live."""
        # Fresh leaves: a root leaf remembers its program, which must not
        # point back at it (a cycle only the cyclic collector frees).
        nodes = tuple(Leaf(var) for var in self.leaves)
        first = len(self.leaves) + len(self.consts)
        slot = {("leaf", i): i for i in range(len(self.leaves))}
        slot.update({("const", i): len(self.leaves) + i for i in range(len(self.consts))})
        free, steps, size = [], [], first
        for k, (op, a, b) in enumerate(self.code):
            free += [slot[x] for x in (a, b) if x is not None and x[0] == "tmp"]
            dst = free.pop() if free else size
            size = max(size, dst + 1)
            slot[("tmp", k)] = dst
            steps.append((_RUN[op], dst, slot[a], None if b is None else slot[b]))
        return nodes, tuple(steps), [*self.consts, *[None] * (size - first)]

    def followed_by(self, *ops) -> Program:
        """This program with the unary opcodes ``ops`` (``None`` skipped)
        applied to its value in turn.  They convert (the result is not
        float32 throughout) or expand it (the result is not native)."""
        code = list(self.code)
        for op in ops:
            if op is not None:
                code.append((_OPCODE[op], ("tmp", len(code) - 1), None))
        if len(code) == len(self.code):
            return self
        expands = any(op is not None and "expand" in op for op in ops)
        return Program(tuple(code), self.leaves, self.consts, self.native and not expands,
                       f32=False)

    @cached_property
    def _reps(self) -> dict:
        """Every operand's representation code (:data:`_R32`, :data:`_RDW`,
        :data:`_R64`): a leaf's variable's, a constant's, an instruction
        value's by its opcode — a comparison gives float32, another float32
        opcode its operand's, a conversion its target, a double-word op a
        double word."""
        reps = {("leaf", i): RANK[var.dtype] for i, var in enumerate(self.leaves)}
        for i, value in enumerate(self.consts):
            reps[("const", i)] = (_RDW if isinstance(value, tuple) else
                                  _R64 if np.asarray(value).dtype == np.float64 else _R32)
        for k, (op, a, _) in enumerate(self.code):
            name = OPS[op]
            if name in _COMPARISONS:
                reps[("tmp", k)] = _R32
            elif name in F32_OPS:
                reps[("tmp", k)] = reps[a]
            elif " to " in name:
                reps[("tmp", k)] = RANK[name.split(" to ")[1]]
            else:
                reps[("tmp", k)] = _RDW
        return reps

    def bind(self, offsets, vectors: dict, scalars: dict, out, out_at=None, fallback=None):
        """A :class:`repro.solvers.native.Entry` running the program over
        the segments ``[offsets[s], offsets[s + 1])`` of ``offsets[-1]``
        elements.

        ``vectors`` maps a leaf index to its values, one element per
        element; ``scalars`` maps the others to ``(base, at)``: segment
        ``s`` reads ``base[at[s]]`` in every element (the per-tile scalar of
        the per-tile codelets).  With ``out_at`` ``None`` the op writes
        element ``i`` to ``out[i]`` — ``out`` may be one of the vectors,
        never part of a scalar's ``base`` — else segment ``s``'s sum to
        ``out[out_at[s]]`` (``.sum()`` of float32 values, ``_dw_tree_sum``
        of double words), and ``out`` overlaps no leaf.  Every buffer is a
        C-contiguous 1-D array in its value's representation: float32,
        float64, or a ``(hi, lo)`` pair of float32 arrays for a double
        word.  All are checked once here (``TypeError`` / ``ValueError``):
        the native call trusts them.  The entry runs ``fallback`` instead
        when its evaluator does not load.  A program that is not
        :attr:`native`, or a binary64 sum, raises ``TypeError``.
        """
        if not self.native:
            raise TypeError("only a program whose every node has one RHS binds")
        offsets = np.asarray(offsets, dtype=np.int64)
        total, nseg = int(offsets[-1]), offsets.size - 1
        if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("segment offsets must rise from 0")
        vecs, seg = sorted(vectors), sorted(scalars)
        if sorted(vecs + seg) != list(range(len(self.leaves))):
            raise ValueError("every leaf must be one vector or one per-segment scalar")
        reduce = out_at is not None
        if reduce:
            out_at = np.asarray(out_at, dtype=np.int64)
        # A float32 program needs no representation table.
        rep_of = (lambda key: _R32) if self.f32 else self._reps.__getitem__
        root = rep_of(("tmp", len(self.code) - 1))
        if reduce and root == _R64:
            raise TypeError("a binary64 sum does not bind")
        outs = _buffers(out, root, None if reduce else total, "out")
        if not all(part.flags.writeable for part in outs):
            raise ValueError("out must be writable")
        leaf_rep = [rep_of(("leaf", i)) for i in range(len(self.leaves))]
        vec_parts = [_buffers(vectors[i], leaf_rep[i], total, "vector") for i in vecs]
        for parts in vec_parts:
            for k, part in enumerate(parts):
                for j, dst in enumerate(outs):
                    if np.may_share_memory(part, dst) and (
                            reduce or j != k or part.ctypes.data != dst.ctypes.data):
                        raise ValueError("a vector overlaps out other than element for element")
        base_parts = [_buffers(scalars[i][0], leaf_rep[i], None, "scalar base") for i in seg]
        at = np.array([scalars[i][1] for i in seg], dtype=np.int64).reshape(len(seg), nseg)
        for parts, row in zip(base_parts, at):
            if any(np.may_share_memory(part, dst) for part in parts for dst in outs):
                raise ValueError("a scalar base overlaps out")
            if nseg and (row.min() < 0 or row.max() >= min(p.size for p in parts)):
                raise ValueError("a per-segment scalar is indexed out of range")
        if reduce and (out_at.shape != (nseg,) or nseg and (
                out_at.min() < 0 or out_at.max() >= outs[0].size)):
            raise ValueError("out_at must give one element of out per segment")
        address = [[a.ctypes.data for a in parts] for parts in (outs, *vec_parts, *base_parts)]
        vec_address = [a for parts in address[1 : 1 + len(vecs)] for a in parts]
        base_address = [a for parts in address[1 + len(vecs) :] for a in parts]
        keep = [a for parts in (outs, *vec_parts, *base_parts) for a in parts]
        if self.f32:
            return self._bind_f32(offsets, nseg, vecs, seg, vec_address, base_address, at,
                                  address[0][0], out_at, keep, fallback)
        return self._bind_dw(offsets, nseg, vecs, seg, vec_address, base_address, at,
                             address[0], out_at, keep, fallback)

    def _bind_f32(self, offsets, nseg, vecs, seg, vec_address, base_address, at, out,
                  out_at, keep, fallback):
        """The ``repro_eval_f32`` entry of a float32 program."""
        reduce = out_at is not None
        prog, n_uni, n_tmp = self._schedule(vecs, seg, reduce)
        ints, starts = _packed(offsets, prog, vec_address, base_address, at.ravel(),
                               out_at if reduce else ())
        # One float32 array holds the temporaries and then the uni slots.
        scratch = np.empty(n_tmp * _BLOCK + n_uni, dtype=np.float32)
        scratch[n_tmp * _BLOCK :][: len(self.consts)] = self.consts
        tmp = scratch.ctypes.data
        args = (nseg, *starts[:5], tmp + 4 * n_tmp * _BLOCK, tmp, out,
                starts[5] if reduce else None)
        from repro.solvers import native  # the package's one C library and its loader

        return native.Entry(native.EVAL, args, (ints, scratch, keep), fallback, native_eval)

    def _bind_dw(self, offsets, nseg, vecs, seg, vec_address, base_address, at, out,
                 out_at, keep, fallback):
        """The ``repro_eval_dw`` entry of a program with a double-word or
        binary64 node."""
        reduce = out_at is not None
        prog, n_uni, n_tmp = self._schedule(vecs, seg, reduce)
        ints, starts = _packed(offsets, prog, vec_address, base_address, at.ravel(), out,
                               out_at if reduce else ())
        # Uni slots of 8 bytes: a float32 in the first half, a double word's
        # hi and lo, or a binary64.
        uni = np.zeros(max(n_uni, 1), dtype=np.float64)
        halves = uni.view(np.float32).reshape(-1, 2)
        for k, value in enumerate(self.consts):
            if isinstance(value, tuple):
                halves[k] = value
            elif np.asarray(value).dtype == np.float64:
                uni[k] = value
            else:
                halves[k, 0] = value
        longest = int(np.diff(offsets).max(initial=0)) if reduce else 0
        tmp = np.empty(n_tmp * 2 * _BLOCK, dtype=np.float32)
        seg_scratch = np.empty(2 * longest, dtype=np.float32)
        args = (nseg, *starts[:5], uni.ctypes.data, tmp.ctypes.data, starts[5],
                starts[6] if reduce else None, seg_scratch.ctypes.data if reduce else None)
        from repro.solvers import native  # the package's one C library and its loader

        return native.Entry(native.DWEVAL, args, (ints, uni, tmp, seg_scratch, keep), fallback,
                            native_dw_eval)

    def _schedule(self, vecs: list, seg: list, reduce: bool) -> tuple:
        """``(prog, uni slots, temporaries)`` for ``repro_eval_f32`` (a
        float32 program) or ``repro_eval_dw``, worked out once per program
        and leaf layout (the self-checks rebind their programs).  An
        instruction whose operands are all constants or per-segment
        scalars runs once per segment (into a ``uni`` slot after the
        constants and the scalars), every other one once per block — the
        last one into ``out``, or, for a sum, into a temporary (float32)
        or the segment scratch (``repro_eval_dw``).  A temporary is read
        once (the code is a tree), so it is free again after its reader."""
        key = (tuple(vecs), tuple(seg), reduce)
        if key not in self._schedules:
            self._schedules[key] = self._plan(vecs, seg, reduce)
        return self._schedules[key]

    def _plan(self, vecs: list, seg: list, reduce: bool) -> tuple:
        f32 = self.f32
        reps = {} if f32 else self._reps
        uni_of = {("const", i): i for i in range(len(self.consts))}
        uni_of.update({("leaf", i): len(self.consts) + j for j, i in enumerate(seg)})
        # A double word's lo half is the next vector, or the next scalar base.
        vec_of, scal_of, k = {}, {}, 0
        for i in vecs:
            vec_of[("leaf", i)], k = k, k + 1 + (reps.get(("leaf", i)) == _RDW)
        k = 0
        for i in seg:
            scal_of[("leaf", i)], k = k, k + 1 + (reps.get(("leaf", i)) == _RDW)
        if f32:
            slots = [uni_of[("leaf", i)] for i in seg]
        else:
            slots = [x for i in seg for x in (uni_of[("leaf", i)], reps[("leaf", i)],
                                               scal_of[("leaf", i)])]
        n_uni, root = len(uni_of), len(self.code) - 1
        uins, ins, tmp_of, free, n_tmp = [], [], {}, [], 0

        def mode(x) -> tuple:
            if x is None:
                return _NONE, 0
            if x in vec_of:
                return _VEC, vec_of[x]
            if x in uni_of:
                return _UNI, uni_of[x]
            return _TMP, tmp_of[x]

        def rep(x) -> tuple:
            return () if f32 else (0 if x is None else reps[x],)

        for k, (op, a, b) in enumerate(self.code):
            typed = (op, *rep(a), *rep(b), *rep(("tmp", k)))
            if k != root and all(x is None or x in uni_of for x in (a, b)):
                uni_of[("tmp", k)] = n_uni
                if f32:
                    uins += [op, n_uni, uni_of[a], -1 if b is None else uni_of[b]]
                else:
                    uins += [*typed, _UNI, n_uni, *mode(a), *mode(b)]
                n_uni += 1
                continue
            operands = (*mode(a), *mode(b))
            if k == root and not (reduce and f32):
                dst = (_OUT, 0)
            else:
                t = free.pop() if free else n_tmp
                n_tmp = max(n_tmp, t + 1)
                tmp_of[("tmp", k)] = t
                dst = (_TMP, t)
            free += [tmp_of[x] for x in (a, b) if x in tmp_of]
            ins += [*typed, *dst, *operands]
        width = 4 if f32 else 10
        head = [len(seg), len(uins) // width, len(ins) // (7 if f32 else 10),
                (tmp_of[("tmp", root)] if reduce else -1) if f32 else reps[("tmp", root)],
                _BLOCK]
        return np.array(head + slots + uins + ins, dtype=np.int64), n_uni, n_tmp


def _packed(*parts) -> tuple:
    """``parts`` as one int64 array — every index and address a native
    call reads — and the address where each part starts in it."""
    ints = np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
    starts = [ints.ctypes.data]
    for part in parts[:-1]:
        starts.append(starts[-1] + 8 * len(part))
    return ints, starts


def _buffers(value, rep: int, size, name: str) -> list:
    """``value``'s arrays: one float32 or float64 array, or a double word's
    ``(hi, lo)`` float32 pair, each C-contiguous and 1-D with ``size``
    elements (any when ``None``; a pair's halves alike) — else
    ``TypeError``."""
    if rep == _RDW:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise TypeError(f"{name} must be a (hi, lo) pair of float32 arrays")
        _f32_buffer(value[0], size, name)
        _f32_buffer(value[1], value[0].size, name)
        return list(value)
    if not (isinstance(value, np.ndarray) and value.dtype == _NUMPY_DTYPE[rep]
            and value.ndim == 1 and value.flags.c_contiguous
            and (size is None or value.size == size)):
        raise TypeError(f"{name} must be a C-contiguous 1-D {_NUMPY_DTYPE[rep].__name__} array"
                        + ("" if size is None else f" of {size} elements"))
    return [value]


def _f32_buffer(array, size, name: str) -> None:
    if not (isinstance(array, np.ndarray) and array.dtype == np.float32 and array.ndim == 1
            and array.flags.c_contiguous and (size is None or array.size == size)):
        raise TypeError(f"{name} must be a C-contiguous 1-D float32 array"
                        + ("" if size is None else f" of {size} elements"))


def compile_expr(expr: Expr) -> Program:
    """The :class:`Program` of ``expr``: its value in ``expr.dtype``
    representation.

    This is the single source of truth for op semantics: the per-tile path
    resolves leaves to shard views, the fused whole-device path to flat
    per-device arrays, and the native evaluator runs the float32 programs
    of either — the same program, which is why the backends are
    bit-identical.  Everything the tree fixes — dtypes, promotions,
    conversions, batch alignment, constant values (rounded once from
    binary64) — is decided here, once.  A tree compiles once: the program
    is remembered on its (frozen) root, beside the node's cached ``dtype``
    / ``batch``.
    """
    program = vars(expr).get("_program")
    if program is None:
        program = vars(expr)["_program"] = _program_of(expr)
    return program


def _frozen(value):
    """A constant shared by every evaluation: its arrays become read-only."""
    for part in value if isinstance(value, tuple) else (value,):
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    return value


def _program_of(expr: Expr) -> Program:
    leaves: dict = {}
    consts: list = []
    code: list = []
    native = f32 = True

    def instruction(op: str, a, b=None) -> tuple:
        code.append((_OPCODE[op], a, b))
        return "tmp", len(code) - 1

    def operand(node, dst: str, expand: bool, view: bool = False) -> tuple:
        """``node`` converted to ``dst``, given a trailing batch axis when
        ``expand``, and seen as binary64 when ``view`` (a double-word
        comparison)."""
        x = emit(node)
        if node.dtype != dst:
            x = instruction(f"{node.dtype} to {dst}", x)
        if expand:
            x = instruction("dw expand" if dst == Type.DOUBLEWORD else "expand", x)
        return instruction("dw to float64", x) if view else x

    def emit(node) -> tuple:
        nonlocal native, f32
        native, f32 = native and node.batch == 1, f32 and node.dtype == Type.FLOAT32
        if isinstance(node, Leaf):
            return "leaf", leaves.setdefault(id(node.var), (len(leaves), node.var))[0]
        if isinstance(node, ConstExpr):
            value = np.float64(node.value)
            if node.dtype != Type.FLOAT64:
                value = _NUMPY[f"{Type.FLOAT64} to {node.dtype}"](value)
            consts.append(_frozen(value))
            return "const", len(consts) - 1
        if isinstance(node, ConvertExpr):
            return operand(node.operand, node.target, expand=False)
        if isinstance(node, UnExpr):
            if node.op not in ("neg", "abs", "sqrt"):
                raise ValueError(f"unknown unary op {node.op!r}")
            dw = node.operand.dtype == Type.DOUBLEWORD
            return instruction("dw " + node.op if dw else node.op, emit(node.operand))
        if isinstance(node, BinExpr):
            compare = node.op in _COMPARISONS
            if not compare and node.op not in ("+", "-", "*", "/"):
                raise ValueError(f"unknown binary op {node.op!r}")
            dt = promote(node.left.dtype, node.right.dtype) if compare else node.dtype
            dw = dt == Type.DOUBLEWORD
            wide = node.batch > 1
            left = operand(node.left, dt, wide and node.left.batch == 1, dw and compare)
            right = operand(node.right, dt, wide and node.right.batch == 1, dw and compare)
            return instruction("dw " + node.op if dw and not compare else node.op, left, right)
        raise TypeError(f"unknown expression {node!r}")

    value = emit(expr)
    del emit, operand  # the two closures cycle through each other
    if value[0] != "tmp":
        instruction("copy", value)
    return Program(tuple(code), tuple(var for _, var in leaves.values()), tuple(consts), native,
                   f32)


def assignment_evaluator(expr: Expr, out_var) -> Program:
    """``compile_expr(expr)`` with its value in ``out_var``'s representation
    (converted, and batch-expanded when an unbatched ``expr`` fills a
    batched variable) — what assigning ``expr`` into ``out_var`` writes."""
    src, dst = expr.dtype, out_var.dtype
    expand = out_var.batch > 1 and expr.batch == 1
    return compile_expr(expr).followed_by(
        f"{src} to {dst}" if src != dst else None,
        ("dw expand" if dst == Type.DOUBLEWORD else "expand") if expand else None)


class _Vector:
    """A vector leaf with no graph variable behind it (float32 unless
    ``dtype`` says otherwise)."""

    batch, shape = 1, (1,)

    def __init__(self, dtype: str = Type.FLOAT32):
        self.dtype = dtype


@functools.cache
def vector_f32(op: str) -> Program:
    """The program of ``a op b`` over two float32 vectors, ``a`` leaf 0 and
    ``b`` leaf 1: the glue a solver binds between its native ops."""
    return compile_expr(BinExpr(op, Leaf(_Vector()), Leaf(_Vector())))


@functools.cache
def _check_case() -> tuple:
    """The self-check's segment offsets and, per program: its vectors, its
    per-segment scalars, whether it is written and/or summed, and numpy's
    value of its tree with the sum of each segment."""
    rng = np.random.default_rng(37)
    lengths = [0, 1, 7, 8, 9, 128, 129, 300, 3]
    offsets = np.cumsum([0] + lengths)
    total, nseg = int(offsets[-1]), len(lengths)
    size = 2 * total + 2 * nseg
    draws = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    draws[::17] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41, -3e-39], size // 17 + 1)
    values = np.split(draws.astype(np.float32), np.cumsum([total, total, nseg]))
    v0, v1, s0, s1 = (Leaf(_Vector()) for _ in range(4))
    arith = BinExpr("-", BinExpr("+", v0, BinExpr("*", s0, ConstExpr(3.0))), v1)
    tree = BinExpr("/", UnExpr("sqrt", UnExpr("abs", UnExpr("neg", arith))),
                   BinExpr("-", s1, v0))
    for op, x, y in (("<", v0, v1), ("<=", v0, s0), (">", v1, s1), (">=", v1, v0),
                     ("==", v0, s1), ("!=", v1, v1)):
        tree = BinExpr("+", tree, BinExpr(op, x, y))
    every = np.arange(nseg)
    source = {v0.var: values[0], v1.var: values[1], s0.var: (values[2], every),
              s1.var: (values[3], every)}
    repeated = {var: v if isinstance(v, np.ndarray) else np.repeat(v[0], lengths)
                for var, v in source.items()}
    cases = []
    for expr, reduces in ((tree, (False, True)), (s1, (False,)), (v1, (True,))):
        program = compile_expr(expr)
        vectors, scalars = {}, {}
        for i, var in enumerate(program.leaves):
            (scalars if isinstance(source[var], tuple) else vectors)[i] = source[var]
        with np.errstate(all="ignore"):
            value = np.broadcast_to(compile_expr(expr)(lambda leaf: repeated[leaf.var]), total)
            sums = np.array([value[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])],
                            dtype=np.float32)
        cases.append((program, vectors, scalars, reduces, value, sums))
    return offsets, cases


def _differ(got, want) -> np.ndarray:
    """Indices where two float32 arrays differ in their bits, two NaNs
    (whatever their payloads) matching."""
    nan = np.isnan(got) & np.isnan(want)
    return np.flatnonzero((got.view(np.uint32) != want.view(np.uint32)) & ~nan)


def _self_check(run) -> str | None:
    """Compare evaluator entries run by ``run`` (``repro_run``) with the
    numpy interpreter bit for bit on a fixed case; ``None`` when they
    agree, else what differed.

    One tree of every arithmetic, unary and comparison op over two vectors,
    two per-segment scalars and a constant (a per-segment product among
    them), written element by element and summed per segment; a
    per-segment scalar written, a vector summed.  Segments of 0, 1, 7, 8,
    9, 128, 129, 300 and 3 elements (both sides of each pairwise regime and
    of the recursive split); ±0.0, ±inf, NaN and subnormals.
    """
    from repro.solvers import native  # the package's one C library and its loader

    offsets, cases = _check_case()
    for k, (program, vectors, scalars, reduces, value, sums) in enumerate(cases):
        for reduce in reduces:
            want = sums if reduce else value
            out = np.empty(want.size, dtype=np.float32)
            at = np.arange(want.size) if reduce else None
            native.Table([program.bind(offsets, vectors, scalars, out, at)], run)()
            differ = _differ(out, want)
            if differ.size:
                i = int(differ[0])
                return (f"self-check: {'sum' if reduce else 'element'} {i} of program {k} is "
                        f"{out[i]!r}, numpy {want[i]!r}")
    return None


@functools.cache
def _dw_check_case() -> tuple:
    """The double-word self-check's segment offsets and, per program: its
    vectors, its per-segment scalars, whether it is written and/or summed,
    its numpy value and the sum of each segment."""
    rng = np.random.default_rng(47)
    lengths = [0, 1, 2, 3, 7, 1101, 5]
    offsets = np.cumsum([0] + lengths)
    total, nseg = int(offsets[-1]), len(lengths)

    def draws(size, scale=1.0):
        out = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size) * scale
        out[::13] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41, -3e-39, 3e38, 1e300],
                              out[::13].size)
        return out

    def dw(size):
        hi = draws(size).astype(np.float32)
        lo = (draws(size, 1e-9) * np.abs(np.nan_to_num(hi))).astype(np.float32)
        return hi, lo

    with np.errstate(all="ignore"):
        d0v, d1v, v0v, w0v = dw(total), dw(total), draws(total).astype(np.float32), draws(total)
        dsv, wsv = dw(nseg), draws(nseg)
    d0, d1, ds, v0, w0, ws = (Leaf(_Vector(t)) for t in (
        Type.DOUBLEWORD, Type.DOUBLEWORD, Type.DOUBLEWORD, Type.FLOAT32, Type.FLOAT64,
        Type.FLOAT64))
    source = {d0.var: d0v, d1.var: d1v, v0.var: v0v, w0.var: w0v,
              ds.var: (dsv, np.arange(nseg)), ws.var: (wsv, np.arange(nseg))}
    c = ConstExpr
    arith = BinExpr("/", BinExpr("*", BinExpr("+", d0, v0), ds), d1)
    dw_tree = BinExpr("+", BinExpr("-", UnExpr("sqrt", UnExpr("abs", UnExpr("neg", arith))),
                                   ConvertExpr(w0, Type.DOUBLEWORD)),
                      BinExpr("*", ConvertExpr(ws, Type.DOUBLEWORD), c(0.1, Type.DOUBLEWORD)))
    wide = BinExpr("/", UnExpr("sqrt", UnExpr("abs", UnExpr("neg", BinExpr(
        "-", BinExpr("*", w0, ws), BinExpr("+", v0, c(3.0, Type.FLOAT64)))))), w0)
    f32_tree = BinExpr("+", ConvertExpr(d0, Type.FLOAT32), ConvertExpr(wide, Type.FLOAT32))
    for op, x, y in (("<", d0, d1), ("<=", d0, ds), (">", w0, ws), (">=", v0, d1),
                     ("==", d1, d1), ("!=", w0, v0)):
        f32_tree = BinExpr("+", f32_tree, BinExpr(op, x, y))
    f64_tree = BinExpr("+", ConvertExpr(d1, Type.FLOAT64), wide)

    def repeated(value):
        if not isinstance(value[1], np.ndarray) or value[1].dtype != np.int64:
            return value
        base = value[0]
        return (tuple(np.repeat(part, lengths) for part in base) if isinstance(base, tuple)
                else np.repeat(base, lengths))

    flat = {var: repeated(v) for var, v in source.items()}
    cases = []
    for expr, reduces in ((dw_tree, (False, True)), (f32_tree, (False, True)),
                          (f64_tree, (False,)), (ds, (False, True))):
        program = compile_expr(expr)
        vectors, scalars = {}, {}
        for i, var in enumerate(program.leaves):
            value = source[var]
            if isinstance(value[1], np.ndarray) and value[1].dtype == np.int64:
                scalars[i] = value
            else:
                vectors[i] = value
        with np.errstate(all="ignore"):
            value = program(lambda leaf: flat[leaf.var])
            parts = tuple(np.broadcast_to(part, total) for part in (
                value if isinstance(value, tuple) else (value,)))
            sums = [[], []]
            for a, b in zip(offsets[:-1], offsets[1:]):
                if len(parts) == 2:
                    for half, got in zip(sums, _dw_tree_sum(parts[0][a:b], parts[1][a:b])):
                        half.append(got)
                elif parts[0].dtype == np.float32:
                    sums[0].append(parts[0][a:b].sum())
        sums = [np.array(half, dtype=np.float32) for half in sums[: len(parts)]]
        cases.append((program, vectors, scalars, reduces, parts, sums))
    return offsets, cases


def _dw_self_check(run) -> str | None:
    """Compare double-word evaluator entries run by ``run``
    (``repro_run``) with the numpy interpreter bit for bit on a fixed case;
    ``None`` when they agree, else what differed.

    Every opcode but the batch expansions: a double-word tree of every
    double-word op and both conversions into a double word, a float32 tree
    of the conversions out of one, the float32 opcodes over binary64 and the
    double-word comparisons, and a binary64 tree; double-word vectors and
    per-segment scalars, float32 and binary64 ones, constants of each
    representation; a double-word per-segment scalar alone.  Written
    element by element and, where float32 or a double word, summed per
    segment (``.sum()``, ``_dw_tree_sum``).  Segments of 0, 1, 2, 3, 7,
    1101 (past a block, odd) and 5 elements;
    ±0.0, ±inf, NaN, subnormals, float32 overflow and a binary64 beyond
    float32's range.
    """
    from repro.solvers import native  # the package's one C library and its loader

    offsets, cases = _dw_check_case()
    for k, (program, vectors, scalars, reduces, parts, sums) in enumerate(cases):
        for reduce in reduces:
            want = sums if reduce else parts
            out = tuple(np.empty(w.size, dtype=w.dtype) for w in want)
            at = np.arange(want[0].size) if reduce else None
            native.Table([program.bind(offsets, vectors, scalars,
                                       out if len(out) == 2 else out[0], at)], run)()
            for half, (got, w) in enumerate(zip(out, want)):
                bits = "u8" if got.dtype == np.float64 else "u4"
                nan = np.isnan(got) & np.isnan(w)
                differ = np.flatnonzero((got.view(bits) != w.view(bits)) & ~nan)
                if differ.size:
                    i = int(differ[0])
                    return (f"self-check: {'sum' if reduce else 'element'} {i} "
                            f"{('hi', 'lo')[half] if len(out) == 2 else ''} of program {k} "
                            f"is {got[i]!r}, numpy {w[i]!r}")
    return None


@functools.cache
def native_dw_eval():
    """The runner for double-word evaluator entries (``repro_eval_dw``),
    resolved like :func:`native_eval`: ``None`` — with one
    ``RuntimeWarning`` — when the library does not build or load, or
    disagrees with the numpy interpreter on its self-check; the fused
    kernels then interpret those programs in numpy."""
    from repro.solvers import native  # the package's one C library and its loader

    return native.kernel(_dw_self_check, "double-word evaluator",
                         "the numpy double-word trees")


@functools.cache
def native_eval():
    """The runner for evaluator entries (``repro_eval_f32``), resolved on
    the first bound :class:`Program` run or table fold: ``None`` — with
    one ``RuntimeWarning`` saying why — when the library does not build or
    load, or disagrees with the numpy interpreter on the self-check; the
    fused kernels then interpret their programs in numpy."""
    from repro.solvers import native  # the package's one C library and its loader

    return native.kernel(_self_check, "expression evaluator", "the numpy expression trees")


@cache
def _tile_resolver(tile_id: int):
    """Leaf values of ``tile_id``'s shards (one resolver per tile, shared by
    every codelet on it)."""

    def resolve(leaf: Leaf):
        sh = leaf.var.shards[tile_id]
        return sh.data if sh.lo is None else (sh.data, sh.lo)

    return resolve


# -- codelet factories -------------------------------------------------------------------


def category_for(dtype: str) -> str:
    """Profiler bucket: extended-precision ops are a Table IV line item."""
    return "elementwise" if dtype == Type.FLOAT32 else "extended_precision"


def worker_chunks(n: int, workers: int) -> list:
    """Split ``n`` elements over worker threads (empty workers dropped)."""
    if n <= 0:
        return []
    base, extra = divmod(n, workers)
    return [base + (i < extra) for i in range(workers) if base + (i < extra) > 0]


def _elementwise_worker_cycles(model, dtype, op_counts, n, workers):
    if not op_counts:  # pure copy/convert
        op_counts = {"add": 1}
    return [
        model.elementwise_mixed(dtype, op_counts, chunk)
        for chunk in worker_chunks(n, workers)
    ] or [model.vertex_overhead]


def elementwise_group(model, expr: Expr, out_var, workers: int, tiles) -> VertexGroup:
    """The fused elementwise vertices writing ``expr`` into ``out_var``'s
    shards on ``tiles``.  What depends on the expression alone — dtype, op
    mix, the spec, the worker cycles of a shard size — is worked out once
    for the compute set, not per tile."""
    expr_dt = expr.dtype
    op_counts = expr.op_counts()
    category = category_for(expr_dt)
    spec = ElementwiseSpec(expr, out_var)
    evaluate = assignment_evaluator(expr, out_var)
    # Remembered per shard size: the tiles of a compute set share a handful.
    worker_cycles = cache(
        lambda n: tuple(_elementwise_worker_cycles(model, expr_dt, op_counts, n, workers))
    )

    def cycles(tile_id: int) -> tuple:
        return worker_cycles(out_var.shard(tile_id).size * out_var.batch)

    def codelet(tile_id: int) -> Codelet:
        resolve = _tile_resolver(tile_id)

        def run(ctx):
            value = evaluate(resolve)
            sh = out_var.shards[tile_id]
            if sh.lo is None:
                sh.data[...] = value
            else:
                sh.data[...], sh.lo[...] = value

        return Codelet(f"ew@{tile_id}", run, lambda ctx: cycles(tile_id),
                       category=category, spec=spec)

    return VertexGroup(tiles, codelet, cycles, category=category, spec=spec)


REDUCE_OPS = ("sum", "max", "min")


def _dw_tree_sum(hi, lo):
    """Pairwise double-word summation of (hi, lo) arrays along their last
    axis: halves added element by element, an odd tail carried.
    ``add_dw_dw`` is pointwise, so each row of a matrix sums as it would
    alone; an empty row sums to ``(0, 0)``."""
    while hi.shape[-1] > 1:
        half = hi.shape[-1] // 2
        h2, l2 = joldes.add_dw_dw(hi[..., :half], lo[..., :half],
                                  hi[..., half : 2 * half], lo[..., half : 2 * half])
        if hi.shape[-1] % 2:
            h2 = np.concatenate([h2, hi[..., -1:]], axis=-1)
            l2 = np.concatenate([l2, lo[..., -1:]], axis=-1)
        hi, lo = h2, l2
    if not hi.shape[-1]:
        return np.zeros(hi.shape[:-1], np.float32), np.zeros(hi.shape[:-1], np.float32)
    return hi[..., 0], lo[..., 0]


def _reduce_value(value, dt: str, op: str):
    """Reduce a tile-local value; returns scalar (or (hi, lo) for dw)."""
    if dt == Type.DOUBLEWORD:
        hi = np.atleast_1d(np.asarray(value[0], np.float32)).ravel()
        lo = np.atleast_1d(np.asarray(value[1], np.float32)).ravel()
        if op == "sum":
            return _dw_tree_sum(hi, lo)
        wide = hi.astype(np.float64) + lo.astype(np.float64)
        k = int(np.argmax(wide) if op == "max" else np.argmin(wide))
        return hi[k], lo[k]
    arr = np.atleast_1d(np.asarray(value)).ravel()
    if op == "sum":
        # Pairwise (numpy's default) keeps f32 partial sums well-behaved.
        return arr.sum(dtype=arr.dtype)
    return arr.max() if op == "max" else arr.min()


def _reduce_value_batched(value, dt: str, op: str, n: int, batch: int):
    """Per-RHS reduction of a ``(n, batch)`` tile value → length-``batch`` arrays.

    Each column goes through exactly the same :func:`_reduce_value` code as
    the single-RHS path — numpy's pairwise summation of a strided column
    view is bit-identical to the contiguous 1-D sum (the split points are
    index-based), whereas a single ``sum(axis=0)`` over the 2-D array is
    not.  This per-column loop is what makes every batched reduction
    bit-identical per RHS to its single-RHS counterpart.
    """
    if dt == Type.DOUBLEWORD:
        hi = np.broadcast_to(np.asarray(value[0], np.float32), (n, batch))
        lo = np.broadcast_to(np.asarray(value[1], np.float32), (n, batch))
        out_hi = np.empty(batch, np.float32)
        out_lo = np.empty(batch, np.float32)
        for j in range(batch):
            out_hi[j], out_lo[j] = _reduce_value((hi[:, j], lo[:, j]), dt, op)
        return out_hi, out_lo
    arr = np.asarray(value)
    full = np.broadcast_to(arr, (n, batch))
    out = np.empty(batch, arr.dtype)
    for j in range(batch):
        out[j] = _reduce_value(full[:, j], dt, op)
    return out


def partial_reduce_group(model, expr: Expr, out_var, workers: int, tiles,
                         op: str = "sum") -> VertexGroup:
    """The per-tile partial reductions of ``expr`` into ``out_var``'s
    one-element shards on ``tiles`` (shared per compute set like
    :func:`elementwise_group`)."""
    dt = expr.dtype
    op_counts = expr.op_counts()
    spec = ReduceSpec(expr, out_var, op)
    evaluate = compile_expr(expr)
    vectors = [leaf.var for leaf in expr.leaves() if not leaf.var.is_scalar]

    def tile_size(tile_id: int) -> int:
        """Number of elements the expression produces on this tile."""
        return max([1] + [v.shard(tile_id).size for v in vectors])

    @cache
    def worker_cycles(n: int) -> tuple:
        # Elementwise evaluation fused with the local reduction tree.
        per_worker = worker_chunks(n, workers)
        costs = [
            model.elementwise_mixed(dt, op_counts, c) + model.reduce(dt, c) - model.vertex_overhead
            for c in per_worker
        ] or [model.vertex_overhead]
        # Worker 0 combines the per-worker partials.
        costs[0] += model.reduce(dt, len(per_worker)) - model.vertex_overhead
        return tuple(costs)

    def cycles(tile_id: int) -> tuple:
        return worker_cycles(tile_size(tile_id) * out_var.batch)

    def codelet(tile_id: int) -> Codelet:
        resolve = _tile_resolver(tile_id)

        def run(ctx):
            value = evaluate(resolve)
            sh = out_var.shards[tile_id]
            if out_var.batch > 1:
                result = _reduce_value_batched(value, dt, op, tile_size(tile_id), out_var.batch)
            else:
                result = _reduce_value(value, dt, op)
            if dt == Type.DOUBLEWORD:
                sh.data[0], sh.lo[0] = result
            else:
                sh.data[0] = result

        return Codelet(f"reduce@{tile_id}", run, lambda ctx: cycles(tile_id),
                       category="reduce", spec=spec)

    return VertexGroup(tiles, codelet, cycles, category="reduce", spec=spec)


def combine_codelet(model, gathered_var, out_var, tile_id: int, op: str = "sum") -> Codelet:
    """Combine gathered per-tile partials into the final scalar (on one tile)."""
    dt = gathered_var.dtype

    def run(ctx):
        g = gathered_var.shard(tile_id)
        o = out_var.shard(tile_id)
        value = (g.data, g.lo) if dt == Type.DOUBLEWORD else g.data
        if gathered_var.batch > 1:
            result = _reduce_value_batched(
                value, dt, op, gathered_var.size, gathered_var.batch
            )
        else:
            result = _reduce_value(value, dt, op)
        if dt == Type.DOUBLEWORD:
            o.data[0], o.lo[0] = result
        else:
            o.data[0] = result

    def cycles(ctx):
        return model.reduce(dt, gathered_var.size * gathered_var.batch)

    return Codelet(
        f"combine@{tile_id}",
        run,
        cycles,
        category="reduce",
        spec=ReduceSpec(Leaf(gathered_var), out_var, op),
    )


def batch_reduce_group(model, in_var, out_var, tiles, op: str = "max") -> VertexGroup:
    """Collapse the trailing batch axis of a replicated batched scalar.

    ``out = max_j in[:, j]`` (or min) on every tile of ``tiles`` —
    tile-local on every replica, so the any-RHS-still-active loop condition
    costs no exchange.  max/min only: they are order-insensitive, which
    keeps sim and fused bit-identical.
    """
    if op not in ("max", "min"):
        raise ValueError(f"batch reduction supports max/min, got {op!r}")
    if in_var.dtype == Type.DOUBLEWORD:
        raise ValueError("batch reduction over dw scalars is not supported")
    tasks = (model.reduce(in_var.dtype, in_var.batch),)
    spec = BatchReduceSpec(in_var, out_var, op)

    def codelet(tile_id: int) -> Codelet:
        def run(ctx):
            arr = in_var.shard(tile_id).data[0]
            out_var.shard(tile_id).data[0] = arr.max() if op == "max" else arr.min()

        return Codelet(f"batchred@{tile_id}", run, tasks, category="reduce", spec=spec)

    return VertexGroup(tiles, codelet, lambda tile_id: tasks, category="reduce", spec=spec)
