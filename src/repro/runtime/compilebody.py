"""Closure-compilation backend: lower function bodies to nested closures.

The tree-walking interpreter re-discovers the shape of the program on
every step: each statement/expression dispatches through ``isinstance``
ladders and every variable resolves by walking a parent-dict chain.
This module performs that discovery **once per translation unit**:

* every AST node is lowered to one small Python closure, bound to its
  children at lower time — executing a node is a single call, with no
  per-step dispatch;
* variable references are **slot-resolved**: lexical scoping is
  computed during lowering, locals live in a flat ``frame`` list
  indexed by integer slot, and only true globals fall back to the
  (single, flat) global environment dict;
* directive semantics are **pre-parsed**: clause mappings, privates,
  reduction vars, implicit-aggregate candidates, firstprivate-scalar
  snapshots and ``if``-clause condition expressions are computed per
  ``DirectiveStmt`` at lower time, not per execution.

Lowering happens in two stages so the result is shareable:

1. :func:`lower_unit` turns the unit into *builders* — ``make(rt)``
   callables memoized on the ``TranslationUnit`` object itself, so a
   cached :class:`~repro.compiler.driver.CompileResult` (the compile
   namespace of :mod:`repro.cache`) carries its lowered program to
   every later execution for free;
2. binding a per-run :class:`_Runtime` instantiates the actual
   closures (micro-seconds; the unit is a few hundred nodes) with the
   interpreter's step cell, globals dict and builtins captured in
   closure cells.

Semantics are shared with the walker through the module-level helpers
in :mod:`repro.runtime.interpreter` (``combine_binary`` etc.); tick
placement mirrors the walker exactly, so both backends produce
byte-identical :class:`~repro.runtime.executor.ExecutionResult`\\ s —
including ``steps`` — which the differential suite asserts corpus-wide.
"""

from __future__ import annotations

import operator

from repro.compiler import astnodes as ast
from repro.compiler.cparser import Parser
from repro.compiler.diagnostics import DiagnosticEngine
from repro.compiler.lexer import Lexer
from repro.compiler.pragma import Directive
from repro.runtime.builtins import Builtins, _MATH_WRAPPERS
from repro.runtime.device import ACC_CLAUSE_SEMANTICS, OMP_MAP_SEMANTICS, block_of
from repro.runtime.interpreter import (
    Interpreter,
    RuntimeFault,
    StepLimitExceeded,
    _BreakSignal,
    _ContinueSignal,
    _PtrRef,
    _ReturnSignal,
    _VarRef,
    _element_offset,
    _index_ref,
    combine_binary,
    combine_compound,
    pointer_arith,
    segv_fault,
    shadow_value,
    unary_value,
)
from repro.runtime.values import (
    CArray,
    HeapBlock,
    MemoryFault,
    Pointer,
    UNINIT,
    coerce_to_type,
    sizeof_type,
    truthy,
)

__all__ = ["lower_unit", "call_main", "LoweredProgram", "LoweredFunction"]


# ---------------------------------------------------------------------------
# lowered program / per-run runtime
# ---------------------------------------------------------------------------


class LoweredFunction:
    """One function body lowered to builders plus its frame layout."""

    __slots__ = ("name", "nslots", "param_specs", "body_makers")

    def __init__(self, name, nslots, param_specs, body_makers):
        self.name = name
        self.nslots = nslots
        #: per-parameter (slot, ctype) — ``None`` for unnamed params,
        #: which consume an argument but bind nothing (as the walker).
        self.param_specs = param_specs
        self.body_makers = body_makers


class LoweredProgram:
    """All function bodies of one translation unit, lowered once."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.functions: dict[str, LoweredFunction] = {}
        for fn in unit.functions:
            if fn.body is not None and fn.name not in self.functions:
                self.functions[fn.name] = _Lowerer(unit).lower_function(fn)


def lower_unit(unit: ast.TranslationUnit) -> LoweredProgram:
    """Lower ``unit``, memoizing the result on the unit object.

    Cached compile results (see :class:`repro.cache.wrappers.
    CachingCompiler`) share their unit, so repeated executions of the
    same program — worker scaling, ablations, re-judging — skip
    lowering entirely.
    """
    program = getattr(unit, "_lowered_program", None)
    if program is None:
        program = LoweredProgram(unit)
        unit._lowered_program = program
    return program


class _Runtime:
    """Per-run bindings handed to every builder's ``make(rt)``."""

    __slots__ = ("interp", "steps", "limit", "genv", "gvars", "gtypes", "functions", "builtins")

    def __init__(self, interp):
        self.interp = interp
        self.steps = interp._step_state
        self.limit = interp.step_limit
        self.genv = interp.globals
        self.gvars = interp.globals.vars
        self.gtypes = interp.globals.types
        self.functions: dict[str, object] = {}
        self.builtins = interp.builtins


def call_main(interp) -> object:
    """Bind the lowered program to ``interp`` and run ``main()``."""
    program = lower_unit(interp.unit)
    rt = _Runtime(interp)
    for name, lowered in program.functions.items():
        rt.functions[name] = _bind_function(lowered, rt)
    return rt.functions["main"]([])


def _bind_function(lf: LoweredFunction, rt: _Runtime):
    """Instantiate one function's closures; returns ``call(args)``."""
    body = tuple(make(rt) for make in lf.body_makers)
    nslots = lf.nslots
    param_specs = lf.param_specs
    nparams = len(param_specs)
    interp = rt.interp

    def call(args):
        interp._call_depth += 1
        if interp._call_depth > 200:
            interp._call_depth -= 1
            raise segv_fault("stack overflow (recursion too deep)")
        frame = [None] * nslots
        for spec, value in zip(param_specs, args):
            if spec is not None:
                if isinstance(value, CArray):
                    value = value.pointer()
                frame[spec[0]] = coerce_to_type(value, spec[1])
        if len(args) < nparams:
            # missing arguments behave as indeterminate (walker: 0)
            for spec in param_specs[len(args):]:
                if spec is not None:
                    frame[spec[0]] = 0
        try:
            for stmt in body:
                stmt(frame)
        except _ReturnSignal as ret:
            return ret.value
        finally:
            interp._call_depth -= 1
        return None

    return call


# ---------------------------------------------------------------------------
# scopes and bindings
# ---------------------------------------------------------------------------


class _Binding:
    """One resolved local: frame slot plus declared type."""

    __slots__ = ("name", "slot", "ctype")

    def __init__(self, name: str, slot: int, ctype):
        self.name = name
        self.slot = slot
        self.ctype = ctype


#: coercion kinds specialized at lower time for slot stores
_RAW, _S32, _FLT, _GEN = 0, 1, 2, 3


def _coerce_kind(ctype) -> int:
    if ctype is None or ctype.is_pointer:
        return _RAW  # coerce_to_type returns the value unchanged
    if ctype.is_floating:
        return _FLT
    if ctype.base == "int":
        return _S32
    return _GEN


class _SlotRef:
    """Generic-lvalue view of a frame slot (mirrors ``_VarRef``)."""

    __slots__ = ("frame", "slot", "ctype")

    def __init__(self, frame, slot, ctype):
        self.frame = frame
        self.slot = slot
        self.ctype = ctype

    def load(self):
        return self.frame[self.slot]

    def store(self, value) -> None:
        ctype = self.ctype
        self.frame[self.slot] = coerce_to_type(value, ctype) if ctype is not None else value

    def address(self):
        value = self.frame[self.slot]
        if isinstance(value, CArray):
            return value.pointer()
        ctype = self.ctype or ast.DOUBLE
        block = HeapBlock(size=sizeof_type(ctype), label="addressed-scalar")
        block.cells[0] = value
        return Pointer(block, 0, ctype)


_SEGV_STDERR = "Segmentation fault (core dumped)\n"

_CMP_FNS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}
_ARITH_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _load_element(base, i: int):
    """``base[i]`` for a single subscript — mirrors the walker's
    resolve-then-load exactly (checks, fault messages, UNINIT → 0)."""
    if base is UNINIT or base is None or base == 0:
        raise segv_fault("subscript of NULL or uninitialized pointer")
    if base.__class__ is CArray:
        dims = base.dims
        if len(dims) == 1:
            if 0 <= i < dims[0]:
                block = base.block
                if block.freed:
                    raise RuntimeFault(
                        f"read from freed {block.label} block", 139, _SEGV_STDERR
                    )
                value = block.cells.get(i * base.elem_size, 0)
                return 0 if value is UNINIT else value
            raise segv_fault(
                f"array index {i} out of bounds for dimension of size {dims[0]}"
            )
        try:
            ptr = base.subarray_pointer([i])
        except MemoryFault as exc:
            raise segv_fault(str(exc)) from exc
        try:
            value = ptr.load()
        except MemoryFault as exc:
            raise RuntimeFault(str(exc), 139, _SEGV_STDERR) from exc
        return 0 if value is UNINIT else value
    if base.__class__ is Pointer:
        elem_size = base.elem_size
        offset = base.byte_offset + i * elem_size
        block = base.block
        if block.freed:
            raise RuntimeFault(f"read from freed {block.label} block", 139, _SEGV_STDERR)
        if offset < 0 or offset + elem_size > block.size:
            raise RuntimeFault(
                f"out-of-bounds read at byte {offset} of {block.size}-byte "
                f"{block.label} block",
                139,
                _SEGV_STDERR,
            )
        value = block.cells.get(offset, 0)
        return 0 if value is UNINIT else value
    raise segv_fault("subscript applied to a non-array value")


def _store_target(base, i: int):
    """Resolve ``base[i]`` as a store destination → (block, offset,
    elem_size, elem_type); raises exactly like the walker's resolve."""
    if base is UNINIT or base is None or base == 0:
        raise segv_fault("subscript of NULL or uninitialized pointer")
    if base.__class__ is CArray:
        dims = base.dims
        if len(dims) == 1:
            if 0 <= i < dims[0]:
                return (base.block, i * base.elem_size, base.elem_size, base.elem_type)
            raise segv_fault(
                f"array index {i} out of bounds for dimension of size {dims[0]}"
            )
        try:
            ptr = base.subarray_pointer([i])
        except MemoryFault as exc:
            raise segv_fault(str(exc)) from exc
        return (ptr.block, ptr.byte_offset, ptr.elem_size, ptr.pointee)
    if base.__class__ is Pointer:
        elem_size = base.elem_size
        return (base.block, base.byte_offset + i * elem_size, elem_size, base.pointee)
    raise segv_fault("subscript applied to a non-array value")


def _store_value(block, offset: int, elem_size: int, elem_type, value) -> None:
    """Coerce-then-store, mirroring ``_PtrRef.store`` → ``block.store``."""
    vc = value.__class__
    if vc is float and elem_type.pointers == 0 and elem_type.base in (
        "double", "float", "long double"
    ):
        stored = value
    elif (
        vc is int
        and elem_type.pointers == 0
        and elem_type.base == "int"
        and -2147483648 <= value <= 2147483647
    ):
        stored = value
    else:
        stored = coerce_to_type(value, elem_type)
    if block.freed:
        raise RuntimeFault(f"write to freed {block.label} block", 139, _SEGV_STDERR)
    if offset < 0 or offset + elem_size > block.size:
        raise RuntimeFault(
            f"out-of-bounds write at byte {offset} of {block.size}-byte "
            f"{block.label} block",
            139,
            _SEGV_STDERR,
        )
    block.cells[offset] = stored


# Subscript chains (``a[i][j]...``).  The walker resolves an evaluated
# chain with ``_index_ref``; the helpers below are its load/store forms
# for the fast backends.  A full-rank ``CArray`` chain (as many subscripts
# as dimensions) is one flat offset, each subscript checked against its
# own dimension (``_element_offset``), read or written straight from
# ``block.cells`` with no ``Pointer``.  A CArray's block always spans its
# dims (its own, or a same-size device copy), so once every subscript is
# in range the flat offset needs no further bounds check.


def _load_cell(block, offset: int, elem_size: int):
    """``block.load`` faulting like ``_PtrRef.load`` (no UNINIT → 0)."""
    if block.freed:
        raise RuntimeFault(f"read from freed {block.label} block", 139, _SEGV_STDERR)
    if offset < 0 or offset + elem_size > block.size:
        raise RuntimeFault(
            f"out-of-bounds read at byte {offset} of {block.size}-byte "
            f"{block.label} block",
            139,
            _SEGV_STDERR,
        )
    return block.cells.get(offset, 0)


def _load_chain(base, indices: list[int]):
    """``base[i0]...[iN]`` for an evaluated chain — the walker's
    resolve-then-load (UNINIT → 0)."""
    if base.__class__ is CArray and len(indices) == len(base.dims):
        block = base.block
        if block.freed:
            raise RuntimeFault(f"read from freed {block.label} block", 139, _SEGV_STDERR)
        value = block.cells.get(_element_offset(base, indices), 0)
    else:
        value = _index_ref(base, indices).load()
    return 0 if value is UNINIT else value


def _load_element2(base, i: int, j: int):
    """``base[i][j]`` — ``_load_chain`` with the 2-D ``CArray`` inlined."""
    if base.__class__ is CArray:
        dims = base.dims
        if len(dims) == 2:
            d0, d1 = dims
            if i < 0 or i >= d0:
                raise segv_fault(f"array index {i} out of bounds for dimension of size {d0}")
            if j < 0 or j >= d1:
                raise segv_fault(f"array index {j} out of bounds for dimension of size {d1}")
            block = base.block
            if block.freed:
                raise RuntimeFault(f"read from freed {block.label} block", 139, _SEGV_STDERR)
            value = block.cells.get((i * d1 + j) * base.elem_size, 0)
            return 0 if value is UNINIT else value
    return _load_chain(base, [i, j])


def _chain_target(base, indices: list[int]):
    """Resolve an evaluated chain as a store destination → (block,
    offset, elem_size, elem_type); raises exactly like ``_index_ref``."""
    if base.__class__ is CArray and len(indices) == len(base.dims):
        return (base.block, _element_offset(base, indices), base.elem_size, base.elem_type)
    ptr = _index_ref(base, indices).address()
    return (ptr.block, ptr.byte_offset, ptr.elem_size, ptr.pointee)


def _chain_target2(base, i: int, j: int):
    """``_chain_target`` for ``base[i][j]`` with the in-range 2-D
    ``CArray`` inlined."""
    if base.__class__ is CArray:
        dims = base.dims
        if len(dims) == 2 and 0 <= i < dims[0] and 0 <= j < dims[1]:
            elem_size = base.elem_size
            return (base.block, (i * dims[1] + j) * elem_size, elem_size, base.elem_type)
    return _chain_target(base, [i, j])


def _charge_subscripts(st, limit: int, values) -> list[int]:
    """Charge a fused chain's ticks one at a time, in the walker's order.

    The fallback for a fused chain whose subscripts are not all ints:
    the Index (or Assignment) node ticks, then each subscript innermost
    first — an UNINIT one faults right after its own tick — then the
    base.  ``values`` are the subscripts in source order; returns them
    as ints.
    """
    st[0] = n = st[0] + 1
    if n > limit:
        raise StepLimitExceeded(limit)
    indices = []
    for value in reversed(values):
        st[0] = n = n + 1
        if n > limit:
            raise StepLimitExceeded(limit)
        if value is UNINIT:
            raise segv_fault("array subscript is uninitialized")
        indices.append(int(value))
    st[0] = n = n + 1
    if n > limit:
        raise StepLimitExceeded(limit)
    indices.reverse()
    return indices


def _fused_fetch(subs, ticks: int):
    """``fetch(frame, st, limit)`` → a fused chain's int subscripts.

    ``subs`` are (is_slot, slot-or-int) in source order.  When every
    subscript is an int, the chain's ``ticks`` are charged as one batch
    with the ``limit + 1`` renormalisation; otherwise
    ``_charge_subscripts`` charges them the walker's way.
    """

    def fetch(frame, st, limit):
        values = [frame[v] if is_slot else v for is_slot, v in subs]
        for value in values:
            if value.__class__ is not int:
                return _charge_subscripts(st, limit, values)
        st[0] = n = st[0] + ticks
        if n > limit:
            st[0] = limit + 1
            raise StepLimitExceeded(limit)
        return values

    return fetch


def _static_flatten(init: ast.InitList) -> list[ast.Expr]:
    flat: list[ast.Expr] = []
    for item in init.items:
        if isinstance(item, ast.InitList):
            flat.extend(_static_flatten(item))
        else:
            flat.append(item)
    return flat


def _parse_clause_expr(text: str) -> ast.Expr | None:
    """Pre-parse an ``if``-clause condition once, at lower time."""
    diags = DiagnosticEngine()
    tokens = Lexer(text, "<clause>", diags).tokenize()
    expr = Parser(tokens, diags, "<clause>").parse_expression()
    if expr is None or diags.has_errors:
        return None
    return expr


# ---------------------------------------------------------------------------
# the lowerer
# ---------------------------------------------------------------------------


class _Lowerer:
    """Lower one function body; one instance per ``FunctionDef``."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.nslots = 0
        self.scopes: list[dict[str, _Binding]] = []

    # -- scope helpers -----------------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, ctype) -> _Binding:
        binding = _Binding(name, self.nslots, ctype)
        self.nslots += 1
        self.scopes[-1][name] = binding
        return binding

    def resolve(self, name: str) -> _Binding | None:
        for scope in reversed(self.scopes):
            binding = scope.get(name)
            if binding is not None:
                return binding
        return None

    def _ref(self, name: str):
        """(name, slot-or-None) pair used by directive plans."""
        binding = self.resolve(name)
        return (name, binding.slot if binding is not None else None)

    # -- entry -------------------------------------------------------------

    def lower_function(self, fn: ast.FunctionDef) -> LoweredFunction:
        self.push_scope()
        param_specs = []
        for param in fn.params:
            if param.name:
                ctype = param.ctype.pointer_to() if param.array else param.ctype
                binding = self.declare(param.name, ctype)
                param_specs.append((binding.slot, ctype))
            else:
                param_specs.append(None)
        self.push_scope()
        body_makers = [self.lower_stmt(stmt) for stmt in fn.body.body]
        self.pop_scope()
        self.pop_scope()
        fn.frame_slots = self.nslots  # annotation for tests/debugging
        return LoweredFunction(fn.name, self.nslots, tuple(param_specs), body_makers)

    # -- statements --------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Declaration):
            return self._lower_declaration(stmt)
        if isinstance(stmt, ast.ExprStmt):
            return self._lower_expr_stmt(stmt)
        if isinstance(stmt, ast.Compound):
            return self._lower_compound(stmt)
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt)
        if isinstance(stmt, ast.DoWhile):
            return self._lower_dowhile(stmt)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt)
        if isinstance(stmt, ast.Return):
            return self._lower_return(stmt)
        if isinstance(stmt, ast.Break):
            return _lower_signal(_BreakSignal)
        if isinstance(stmt, ast.Continue):
            return _lower_signal(_ContinueSignal)
        if isinstance(stmt, ast.DirectiveStmt):
            return self._lower_directive(stmt)
        message = f"unsupported statement {type(stmt).__name__}"

        def make(rt):
            st, limit = rt.steps, rt.limit

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                raise RuntimeFault(message, 1, "")

            return run

        return make

    def _lower_expr_stmt(self, stmt: ast.ExprStmt):
        if stmt.expr is None:
            def make(rt):
                st, limit = rt.steps, rt.limit

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)

                return run

            return make
        expr_m = self.lower_expr(stmt.expr)

        def make(rt):
            st, limit = rt.steps, rt.limit
            expr_c = expr_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                expr_c(frame)

            return run

        return make

    def _lower_compound(self, stmt: ast.Compound):
        self.push_scope()
        child_makers = [self.lower_stmt(child) for child in stmt.body]
        self.pop_scope()

        def make(rt):
            st, limit = rt.steps, rt.limit
            children = tuple(m(rt) for m in child_makers)
            if len(children) == 1:
                only = children[0]

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    only(frame)

                return run

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                for child in children:
                    child(frame)

            return run

        return make

    def _lower_if(self, stmt: ast.If):
        cond_m = self.lower_expr(stmt.cond)
        then_m = self.lower_stmt(stmt.then)
        else_m = self.lower_stmt(stmt.otherwise) if stmt.otherwise is not None else None

        def make(rt):
            st, limit = rt.steps, rt.limit
            cond_c = cond_m(rt)
            then_c = then_m(rt)
            else_c = else_m(rt) if else_m is not None else None

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                c = cond_c(frame)
                if c != 0 if c.__class__ is int else truthy(c):
                    then_c(frame)
                elif else_c is not None:
                    else_c(frame)

            return run

        return make

    def _lower_while(self, stmt: ast.While):
        cond_m = self.lower_expr(stmt.cond)
        body_m = self.lower_stmt(stmt.body)

        def make(rt):
            st, limit = rt.steps, rt.limit
            cond_c = cond_m(rt)
            body_c = body_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                while True:
                    c = cond_c(frame)
                    if not (c != 0 if c.__class__ is int else truthy(c)):
                        break
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    try:
                        body_c(frame)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        continue

            return run

        return make

    def _lower_dowhile(self, stmt: ast.DoWhile):
        cond_m = self.lower_expr(stmt.cond)
        body_m = self.lower_stmt(stmt.body)

        def make(rt):
            st, limit = rt.steps, rt.limit
            cond_c = cond_m(rt)
            body_c = body_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                while True:
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    try:
                        body_c(frame)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    c = cond_c(frame)
                    if not (c != 0 if c.__class__ is int else truthy(c)):
                        break

            return run

        return make

    def _lower_for(self, stmt: ast.For):
        self.push_scope()
        init_m = self.lower_stmt(stmt.init) if stmt.init is not None else None
        cond_m = self.lower_expr(stmt.cond) if stmt.cond is not None else None
        step_m = self.lower_expr(stmt.step) if stmt.step is not None else None
        body_m = self.lower_stmt(stmt.body)
        self.pop_scope()

        def make(rt):
            st, limit = rt.steps, rt.limit
            init_c = init_m(rt) if init_m is not None else None
            cond_c = cond_m(rt) if cond_m is not None else None
            step_c = step_m(rt) if step_m is not None else None
            body_c = body_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                if init_c is not None:
                    init_c(frame)
                while True:
                    if cond_c is not None:
                        c = cond_c(frame)
                        if not (c != 0 if c.__class__ is int else truthy(c)):
                            break
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    try:
                        body_c(frame)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    if step_c is not None:
                        step_c(frame)

            return run

        return make

    def _lower_return(self, stmt: ast.Return):
        value_m = self.lower_expr(stmt.value) if stmt.value is not None else None

        def make(rt):
            st, limit = rt.steps, rt.limit
            value_c = value_m(rt) if value_m is not None else None

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                raise _ReturnSignal(value_c(frame) if value_c is not None else None)

            return run

        return make

    def _lower_declaration(self, decl: ast.Declaration):
        part_makers = []
        for d in decl.declarators:
            if d.is_array:
                part_makers.append(self._lower_array_declarator(d))
            else:
                part_makers.append(self._lower_scalar_declarator(d))

        def make(rt):
            st, limit = rt.steps, rt.limit
            parts = tuple(m(rt) for m in part_makers)
            if len(parts) == 1:
                only = parts[0]

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    only(frame)

                return run

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                for part in parts:
                    part(frame)

            return run

        return make

    def _lower_array_declarator(self, d: ast.Declarator):
        dim_makers = [
            self.lower_expr(dim) if dim is not None else None for dim in d.array_dims
        ]
        item_makers = (
            [self.lower_expr(item) for item in _static_flatten(d.init)]
            if isinstance(d.init, ast.InitList)
            else None
        )
        ctype = d.ctype
        elem_size = sizeof_type(ctype)
        binding = self.declare(d.name, ctype.pointer_to())
        slot = binding.slot
        d.slot = slot  # annotation

        def make(rt):
            dim_cs = tuple(m(rt) if m is not None else None for m in dim_makers)
            item_cs = tuple(m(rt) for m in item_makers) if item_makers is not None else None

            def run(frame):
                dims = [
                    0 if c is None else max(0, int(c(frame))) for c in dim_cs
                ]
                arr = CArray(ctype, dims)
                if item_cs is not None:
                    flat = [c(frame) for c in item_cs]
                    block = arr.block
                    for i, value in enumerate(flat[: arr.flat_length()]):
                        block.store(i * elem_size, elem_size, coerce_to_type(value, ctype))
                frame[slot] = arr

            return run

        return make

    def _lower_scalar_declarator(self, d: ast.Declarator):
        ctype = d.ctype
        init_m = self.lower_expr(d.init) if d.init is not None else None
        binding = self.declare(d.name, ctype)
        slot = binding.slot
        d.slot = slot  # annotation
        if init_m is None:
            if ctype.is_pointer:
                default = UNINIT
            elif ctype.is_floating:
                default = 0.0
            else:
                default = 0

            def make(rt):
                def run(frame):
                    frame[slot] = default

                return run

            return make

        def make(rt):
            init_c = init_m(rt)

            def run(frame):
                frame[slot] = coerce_to_type(init_c(frame), ctype)

            return run

        return make

    # -- expressions -------------------------------------------------------

    def lower_expr(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLiteral):
            return _lower_const(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return _lower_const(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return _lower_const(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return _lower_const(ord(expr.value[0]) if expr.value else 0)
        if isinstance(expr, ast.Identifier):
            return self._lower_identifier(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Assignment):
            return self._lower_assignment(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.Index):
            return self._lower_index_load(expr)
        if isinstance(expr, ast.Cast):
            return self._lower_cast(expr)
        if isinstance(expr, ast.SizeOf):
            return self._lower_sizeof(expr)
        if isinstance(expr, ast.CommaExpr):
            return self._lower_comma(expr)
        if isinstance(expr, ast.Member):
            return _lower_raiser(
                RuntimeFault(
                    "struct member access is not supported by this substrate", 1,
                    "runtime error: unsupported struct access\n",
                )
            )
        if isinstance(expr, ast.InitList):
            return self._lower_initlist(expr)
        return _lower_raiser(
            RuntimeFault(f"unsupported expression {type(expr).__name__}", 1, "")
        )

    def _lower_identifier(self, expr: ast.Identifier):
        binding = self.resolve(expr.name)
        if binding is not None:
            slot = binding.slot
            expr.slot = slot  # annotation

            def make(rt):
                st, limit = rt.steps, rt.limit

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    return frame[slot]

                return run

            return make
        name = expr.name

        def make(rt):
            st, limit = rt.steps, rt.limit
            gvars = rt.gvars

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                try:
                    return gvars[name]
                except KeyError:
                    raise segv_fault(f"use of unknown symbol '{name}'") from None

            return run

        return make

    def _lower_binary(self, expr: ast.BinaryOp):
        op = expr.op
        left_m = self.lower_expr(expr.left)
        right_m = self.lower_expr(expr.right)
        if op in ("&&", "||"):
            is_and = op == "&&"

            def make(rt):
                st, limit = rt.steps, rt.limit
                left_c = left_m(rt)
                right_c = right_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    l = left_c(frame)
                    lt = l != 0 if l.__class__ is int else truthy(l)
                    if is_and:
                        if not lt:
                            return 0
                    elif lt:
                        return 1
                    r = right_c(frame)
                    return 1 if (r != 0 if r.__class__ is int else truthy(r)) else 0

                return run

            return make

        # fused superinstruction: both operands pure (slot/const) means
        # the three ticks (node + operands) can be batched and the
        # operand closures skipped entirely
        if op in _CMP_FNS or op in _ARITH_FNS:
            left_plan = self._simple_operand(expr.left)
            right_plan = self._simple_operand(expr.right)
            if left_plan is not None and right_plan is not None:
                return _lower_fused_binary(op, left_plan, right_plan)

        # arithmetic fast paths sit in front of the shared slow path so
        # int/float work never touches the isinstance ladders
        if op in ("+", "-", "*"):
            def make(rt, _op=op):
                st, limit = rt.steps, rt.limit
                left_c = left_m(rt)
                right_c = right_m(rt)
                if _op == "+":
                    def run(frame):
                        st[0] = n = st[0] + 1
                        if n > limit:
                            raise StepLimitExceeded(limit)
                        l = left_c(frame)
                        r = right_c(frame)
                        lc = l.__class__
                        rc = r.__class__
                        if (lc is int or lc is float) and (rc is int or rc is float):
                            return l + r
                        return combine_binary("+", l, r)
                elif _op == "-":
                    def run(frame):
                        st[0] = n = st[0] + 1
                        if n > limit:
                            raise StepLimitExceeded(limit)
                        l = left_c(frame)
                        r = right_c(frame)
                        lc = l.__class__
                        rc = r.__class__
                        if (lc is int or lc is float) and (rc is int or rc is float):
                            return l - r
                        return combine_binary("-", l, r)
                else:
                    def run(frame):
                        st[0] = n = st[0] + 1
                        if n > limit:
                            raise StepLimitExceeded(limit)
                        l = left_c(frame)
                        r = right_c(frame)
                        lc = l.__class__
                        rc = r.__class__
                        if (lc is int or lc is float) and (rc is int or rc is float):
                            return l * r
                        return combine_binary("*", l, r)
                return run

            return make

        if op in _CMP_FNS:
            cmp = _CMP_FNS[op]

            def make(rt):
                st, limit = rt.steps, rt.limit
                left_c = left_m(rt)
                right_c = right_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    l = left_c(frame)
                    r = right_c(frame)
                    lc = l.__class__
                    rc = r.__class__
                    if (lc is int or lc is float) and (rc is int or rc is float):
                        return 1 if cmp(l, r) else 0
                    return combine_binary(op, l, r)

                return run

            return make

        def make(rt):
            st, limit = rt.steps, rt.limit
            left_c = left_m(rt)
            right_c = right_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                return combine_binary(op, left_c(frame), right_c(frame))

            return run

        return make

    def _lower_unary(self, expr: ast.UnaryOp):
        op = expr.op
        if op in ("++", "--"):
            return self._lower_incdec(expr)
        if op == "&":
            lvalue_m = self.lower_lvalue(expr.operand)

            def make(rt):
                st, limit = rt.steps, rt.limit
                lvalue_c = lvalue_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    return lvalue_c(frame).address()

                return run

            return make
        if op == "*":
            operand_m = self.lower_expr(expr.operand)

            def make(rt):
                st, limit = rt.steps, rt.limit
                operand_c = operand_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = operand_c(frame)
                    if value is UNINIT or value == 0 or value is None:
                        raise segv_fault("dereference of NULL or uninitialized pointer")
                    if isinstance(value, CArray):
                        value = value.pointer()
                    if not isinstance(value, Pointer):
                        raise segv_fault("dereference of a non-pointer value")
                    loaded = value.load()
                    return 0 if loaded is UNINIT else loaded

                return run

            return make
        operand_m = self.lower_expr(expr.operand)
        if op == "!":
            def make(rt):
                st, limit = rt.steps, rt.limit
                operand_c = operand_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = operand_c(frame)
                    if value.__class__ is int:
                        return 0 if value != 0 else 1
                    return unary_value("!", value)

                return run

            return make
        if op == "-":
            def make(rt):
                st, limit = rt.steps, rt.limit
                operand_c = operand_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = operand_c(frame)
                    vc = value.__class__
                    if vc is int or vc is float:
                        return -value
                    return unary_value("-", value)

                return run

            return make

        def make(rt):
            st, limit = rt.steps, rt.limit
            operand_c = operand_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                return unary_value(op, operand_c(frame))

            return run

        return make

    def _lower_incdec(self, expr: ast.UnaryOp):
        delta = 1 if expr.op == "++" else -1
        prefix = expr.prefix
        target = expr.operand
        if isinstance(target, ast.Identifier):
            binding = self.resolve(target.name)
            if binding is not None:
                slot, ctype = binding.slot, binding.ctype
                kind = _coerce_kind(ctype)
                target.slot = slot  # annotation

                def make(rt):
                    st, limit = rt.steps, rt.limit

                    def run(frame):
                        st[0] = n = st[0] + 1
                        if n > limit:
                            raise StepLimitExceeded(limit)
                        old = frame[slot]
                        if old.__class__ is int:
                            new = old + delta
                            if kind == _S32 and -2147483648 <= new <= 2147483647:
                                frame[slot] = new
                            else:
                                # walker coerces on every store: an int in
                                # a float-typed slot must become float
                                frame[slot] = (
                                    coerce_to_type(new, ctype) if ctype is not None else new
                                )
                            return new if prefix else old
                        if old is UNINIT:
                            old = 0
                        if isinstance(old, Pointer):
                            new = old.add(delta)
                        else:
                            new = old + delta
                        frame[slot] = coerce_to_type(new, ctype) if ctype is not None else new
                        return new if prefix else old

                    return run

                return make
        lvalue_m = self.lower_lvalue(target)

        def make(rt):
            st, limit = rt.steps, rt.limit
            lvalue_c = lvalue_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                ref = lvalue_c(frame)
                old = ref.load()
                if old is UNINIT:
                    old = 0
                if isinstance(old, Pointer):
                    new = old.add(delta)
                else:
                    new = old + delta
                ref.store(new)
                return new if prefix else old

            return run

        return make

    def _lower_conditional(self, expr: ast.Conditional):
        cond_m = self.lower_expr(expr.cond)
        then_m = self.lower_expr(expr.then)
        else_m = self.lower_expr(expr.otherwise)

        def make(rt):
            st, limit = rt.steps, rt.limit
            cond_c = cond_m(rt)
            then_c = then_m(rt)
            else_c = else_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                c = cond_c(frame)
                if c != 0 if c.__class__ is int else truthy(c):
                    return then_c(frame)
                return else_c(frame)

            return run

        return make

    def _lower_comma(self, expr: ast.CommaExpr):
        part_makers = [self.lower_expr(part) for part in expr.parts]

        def make(rt):
            st, limit = rt.steps, rt.limit
            parts = tuple(m(rt) for m in part_makers)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                result = 0
                for part in parts:
                    result = part(frame)
                return result

            return run

        return make

    def _lower_initlist(self, expr: ast.InitList):
        item_makers = [self.lower_expr(item) for item in expr.items]

        def make(rt):
            st, limit = rt.steps, rt.limit
            items = tuple(m(rt) for m in item_makers)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                return [item(frame) for item in items]

            return run

        return make

    def _lower_cast(self, expr: ast.Cast):
        operand_m = self.lower_expr(expr.operand)
        target_type = expr.target_type
        pointee = target_type.pointee() if target_type.is_pointer else None

        def make(rt):
            st, limit = rt.steps, rt.limit
            operand_c = operand_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                value = operand_c(frame)
                if isinstance(value, Pointer) and pointee is not None:
                    return value.retag(pointee)
                if isinstance(value, (Pointer, CArray)):
                    return value
                return coerce_to_type(value, target_type)

            return run

        return make

    def _lower_sizeof(self, expr: ast.SizeOf):
        if expr.target_type is not None:
            return _lower_const(sizeof_type(expr.target_type))
        operand_m = self.lower_expr(expr.operand) if expr.operand is not None else None

        def make(rt):
            st, limit = rt.steps, rt.limit
            operand_c = operand_m(rt) if operand_m is not None else None

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                value = operand_c(frame) if operand_c is not None else 0
                if isinstance(value, CArray):
                    return value.block.size
                if isinstance(value, Pointer):
                    return 8
                if isinstance(value, float):
                    return 8
                return 4

            return run

        return make

    def _lower_call(self, expr: ast.Call):
        name = expr.callee
        arg_makers = [self.lower_expr(arg) for arg in expr.args]
        fn = self.unit.function(name)
        if fn is not None:
            def make(rt):
                st, limit = rt.steps, rt.limit
                arg_cs = tuple(m(rt) for m in arg_makers)
                functions = rt.functions

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    return functions[name]([c(frame) for c in arg_cs])

                return run

            return make
        attr = f"fn_{name}"
        if hasattr(Builtins, attr):
            def make(rt):
                st, limit = rt.steps, rt.limit
                arg_cs = tuple(m(rt) for m in arg_makers)
                method = getattr(rt.builtins, attr)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    values = [c(frame) for c in arg_cs]
                    try:
                        return method(*values)
                    except (TypeError, IndexError) as exc:
                        raise RuntimeFault(
                            f"bad call to {name}: {exc}", 139,
                            "Segmentation fault (core dumped)\n",
                        ) from exc

                return run

            return make
        wrapper = _MATH_WRAPPERS.get(name)
        if wrapper is not None:
            def make(rt):
                st, limit = rt.steps, rt.limit
                arg_cs = tuple(m(rt) for m in arg_makers)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    values = [c(frame) for c in arg_cs]
                    try:
                        return wrapper(*values)
                    except (TypeError, IndexError) as exc:
                        raise RuntimeFault(
                            f"bad call to {name}: {exc}", 139,
                            "Segmentation fault (core dumped)\n",
                        ) from exc

                return run

            return make

        def make(rt):
            st, limit = rt.steps, rt.limit
            arg_cs = tuple(m(rt) for m in arg_makers)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                for c in arg_cs:
                    c(frame)
                raise RuntimeFault(
                    f"call to undefined function '{name}'", 127,
                    f"symbol lookup error: undefined symbol: {name}\n",
                )

            return run

        return make

    # -- assignment --------------------------------------------------------

    def _lower_assignment(self, expr: ast.Assignment):
        target = expr.target
        value_m = self.lower_expr(expr.value)
        if isinstance(target, ast.Index):
            fused = self._fused_chain(target)
            if fused is not None:
                binop = None if expr.op == "=" else expr.op[:-1]
                return self._lower_fused_assign(*fused, binop, value_m)
            if expr.op == "=" and not isinstance(target.base, ast.Index):
                return self._lower_index_assign(target, value_m)
        if expr.op == "=":
            if isinstance(target, ast.Identifier):
                binding = self.resolve(target.name)
                if binding is not None:
                    return self._lower_slot_assign(binding, target, value_m)
                return self._lower_global_assign(target.name, value_m)
            lvalue_m = self.lower_lvalue(target)

            def make(rt):
                st, limit = rt.steps, rt.limit
                lvalue_c = lvalue_m(rt)
                value_c = value_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    ref = lvalue_c(frame)
                    value = value_c(frame)
                    ref.store(value)
                    return value

                return run

            return make
        # compound assignment: resolve, evaluate rhs, load old, combine
        binop = expr.op[:-1]
        if isinstance(target, ast.Identifier):
            binding = self.resolve(target.name)
            if binding is not None:
                return self._lower_slot_compound(binding, target, binop, value_m)
        lvalue_m = self.lower_lvalue(target)

        def make(rt):
            st, limit = rt.steps, rt.limit
            lvalue_c = lvalue_m(rt)
            value_c = value_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                ref = lvalue_c(frame)
                value = value_c(frame)
                old = ref.load()
                if old is UNINIT:
                    old = 0
                combined = combine_compound(binop, old, value)
                ref.store(combined)
                return combined

            return run

        return make

    def _lower_slot_assign(self, binding: _Binding, target: ast.Identifier, value_m):
        slot, ctype = binding.slot, binding.ctype
        kind = _coerce_kind(ctype)
        target.slot = slot  # annotation

        def make(rt):
            st, limit = rt.steps, rt.limit
            value_c = value_m(rt)
            if kind == _RAW:
                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = value_c(frame)
                    frame[slot] = value
                    return value
            elif kind == _S32:
                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = value_c(frame)
                    if value.__class__ is int and -2147483648 <= value <= 2147483647:
                        frame[slot] = value
                    else:
                        frame[slot] = coerce_to_type(value, ctype)
                    return value
            elif kind == _FLT:
                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = value_c(frame)
                    if value.__class__ is float:
                        frame[slot] = value
                    else:
                        frame[slot] = coerce_to_type(value, ctype)
                    return value
            else:
                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    value = value_c(frame)
                    frame[slot] = coerce_to_type(value, ctype)
                    return value
            return run

        return make

    def _lower_global_assign(self, name: str, value_m):
        def make(rt):
            st, limit = rt.steps, rt.limit
            value_c = value_m(rt)
            gvars = rt.gvars
            gtypes = rt.gtypes

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                if name not in gvars:
                    raise segv_fault(f"assignment to unknown symbol '{name}'")
                value = value_c(frame)
                ctype = gtypes.get(name)
                gvars[name] = coerce_to_type(value, ctype) if ctype is not None else value
                return value

            return run

        return make

    def _lower_slot_compound(self, binding: _Binding, target: ast.Identifier, binop: str, value_m):
        slot, ctype = binding.slot, binding.ctype
        kind = _coerce_kind(ctype)
        fast_arith = binop in ("+", "-", "*")
        target.slot = slot  # annotation

        def make(rt):
            st, limit = rt.steps, rt.limit
            value_c = value_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                value = value_c(frame)
                old = frame[slot]
                if old is UNINIT:
                    old = 0
                oc = old.__class__
                vc = value.__class__
                if fast_arith and (oc is int or oc is float) and (vc is int or vc is float):
                    if binop == "+":
                        combined = old + value
                    elif binop == "-":
                        combined = old - value
                    else:
                        combined = old * value
                else:
                    combined = combine_compound(binop, old, value)
                cc = combined.__class__
                if kind == _RAW:
                    frame[slot] = combined
                elif kind == _S32 and cc is int and -2147483648 <= combined <= 2147483647:
                    frame[slot] = combined
                elif kind == _FLT and cc is float:
                    frame[slot] = combined
                else:
                    frame[slot] = coerce_to_type(combined, ctype)
                return combined

            return run

        return make

    def _lower_fused_assign(self, base_slot: int, subs, binop, value_m):
        """Fused ``a[i]...[k] = v`` / ``a[i]...[k] op= v`` (see
        ``_fused_chain``); ``binop`` is None for plain ``=``.

        The Assignment + subscripts + base ticks are charged like
        ``_lower_fused_load``'s.  Then, in the walker's order: resolve
        the destination (bounds checked), evaluate the right-hand side,
        load and combine the old value for a compound op, coerce and
        store.
        """
        rank = len(subs)
        fetch = _fused_fetch(subs, rank + 2)
        fast_arith = binop in ("+", "-", "*")
        # ranks 1 and 2 read their subscripts inline (padded for rank 1);
        # deeper chains go through ``fetch``
        (i_slot, i_val), (j_slot, j_val) = (list(subs) + [(False, 0)])[:2]

        def make(rt):
            st, limit = rt.steps, rt.limit
            value_c = value_m(rt)

            def run(frame):
                if rank == 1:
                    i = frame[i_val] if i_slot else i_val
                    if i.__class__ is int:
                        st[0] = n = st[0] + 3
                        if n > limit:
                            st[0] = limit + 1
                            raise StepLimitExceeded(limit)
                    else:
                        (i,) = _charge_subscripts(st, limit, (i,))
                    block, offset, elem_size, elem_type = _store_target(frame[base_slot], i)
                elif rank == 2:
                    i = frame[i_val] if i_slot else i_val
                    j = frame[j_val] if j_slot else j_val
                    if i.__class__ is int and j.__class__ is int:
                        st[0] = n = st[0] + 4
                        if n > limit:
                            st[0] = limit + 1
                            raise StepLimitExceeded(limit)
                    else:
                        i, j = _charge_subscripts(st, limit, (i, j))
                    block, offset, elem_size, elem_type = _chain_target2(
                        frame[base_slot], i, j
                    )
                else:
                    block, offset, elem_size, elem_type = _chain_target(
                        frame[base_slot], fetch(frame, st, limit)
                    )
                value = value_c(frame)
                if binop is None:
                    _store_value(block, offset, elem_size, elem_type, value)
                    return value
                old = _load_cell(block, offset, elem_size)
                if old is UNINIT:
                    old = 0
                oc = old.__class__
                vc = value.__class__
                if fast_arith and (oc is int or oc is float) and (vc is int or vc is float):
                    if binop == "+":
                        combined = old + value
                    elif binop == "-":
                        combined = old - value
                    else:
                        combined = old * value
                else:
                    combined = combine_compound(binop, old, value)
                _store_value(block, offset, elem_size, elem_type, combined)
                return combined

            return run

        return make

    def _lower_index_assign(self, target: ast.Index, value_m):
        """``base[i] = value`` with a single, non-fused subscript.

        Mirrors the walker's order: resolve the destination (index and
        base first, bounds checked), THEN evaluate the right-hand side,
        then coerce-and-store.
        """
        index_m = self.lower_expr(target.index)
        base_m = self.lower_expr(target.base)

        def make(rt):
            st, limit = rt.steps, rt.limit
            index_c = index_m(rt)
            base_c = base_m(rt)
            value_c = value_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                index = index_c(frame)
                if index.__class__ is not int:
                    if index is UNINIT:
                        raise segv_fault("array subscript is uninitialized")
                    index = int(index)
                block, offset, elem_size, elem_type = _store_target(base_c(frame), index)
                value = value_c(frame)
                _store_value(block, offset, elem_size, elem_type, value)
                return value

            return run

        return make

    # -- index loads -------------------------------------------------------

    def _simple_operand(self, expr: ast.Expr):
        """('slot', i) / ('const', v) for pure, non-faulting operands.

        Only these may participate in tick-batched superinstructions: a
        frame-slot read or constant cannot fault, so pre-charging its
        tick never changes the step count observable at a fault.
        """
        if isinstance(expr, ast.Identifier):
            binding = self.resolve(expr.name)
            if binding is not None:
                expr.slot = binding.slot  # annotation
                return ("slot", binding.slot)
            return None  # global reads can fault (unknown symbol)
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)):
            return ("const", expr.value)
        if isinstance(expr, ast.StringLiteral):
            return ("const", expr.value)
        if isinstance(expr, ast.CharLiteral):
            return ("const", ord(expr.value[0]) if expr.value else 0)
        return None

    def _fused_chain(self, expr: ast.Index):
        """``(base_slot, subs)`` when ``expr`` is a subscript chain on a
        frame-slot base whose subscripts are all slots or numeric
        constants, else None.  ``subs`` holds (is_slot, slot-or-int) per
        subscript, in source order.

        Such chains lower to fused superinstructions: the Index (or
        Assignment) node, every subscript and the base are pure ticks,
        so they can be charged up front.
        """
        subs = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            plan = self._simple_operand(node.index)
            if plan is None:
                return None
            kind, value = plan
            if kind == "slot":
                subs.append((True, value))
            elif value.__class__ is str:
                return None  # the walker's int() of a string is a run-time error
            else:
                subs.append((False, int(value)))
            node = node.base
        if not isinstance(node, ast.Identifier):
            return None
        base_plan = self._simple_operand(node)
        if base_plan is None:
            return None
        subs.reverse()
        return base_plan[1], subs

    def _lower_fused_load(self, base_slot: int, subs):
        """Fused ``a[i]...[k]`` load (see ``_fused_chain``).

        When every subscript is an int, the Index + subscripts + base
        ticks are charged as one batch: nothing between them can fault,
        and the ``limit + 1`` renormalisation makes an overflow inside
        the batch read like the walker's.  Otherwise
        ``_charge_subscripts`` charges them the walker's way, so an
        UNINIT subscript faults at the walker's step count.  Ranks 1 and
        2 are inlined; deeper chains go through ``_fused_fetch``.
        """
        if len(subs) == 1:
            ((i_slot, i_val),) = subs

            def make(rt):
                st, limit = rt.steps, rt.limit

                def run(frame):
                    i = frame[i_val] if i_slot else i_val
                    if i.__class__ is int:
                        st[0] = n = st[0] + 3
                        if n > limit:
                            st[0] = limit + 1
                            raise StepLimitExceeded(limit)
                    else:
                        (i,) = _charge_subscripts(st, limit, (i,))
                    return _load_element(frame[base_slot], i)

                return run

            return make
        if len(subs) == 2:
            (i_slot, i_val), (j_slot, j_val) = subs

            def make(rt):
                st, limit = rt.steps, rt.limit

                def run(frame):
                    i = frame[i_val] if i_slot else i_val
                    j = frame[j_val] if j_slot else j_val
                    if i.__class__ is int and j.__class__ is int:
                        st[0] = n = st[0] + 4
                        if n > limit:
                            st[0] = limit + 1
                            raise StepLimitExceeded(limit)
                    else:
                        i, j = _charge_subscripts(st, limit, (i, j))
                    return _load_element2(frame[base_slot], i, j)

                return run

            return make
        fetch = _fused_fetch(subs, len(subs) + 2)

        def make(rt):
            st, limit = rt.steps, rt.limit

            def run(frame):
                return _load_chain(frame[base_slot], fetch(frame, st, limit))

            return run

        return make

    def _lower_index_load(self, expr: ast.Index):
        fused = self._fused_chain(expr)
        if fused is not None:
            return self._lower_fused_load(*fused)
        if not isinstance(expr.base, ast.Index):
            index_m = self.lower_expr(expr.index)
            base_m = self.lower_expr(expr.base)

            def make(rt):
                st, limit = rt.steps, rt.limit
                index_c = index_m(rt)
                base_c = base_m(rt)

                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    index = index_c(frame)
                    if index.__class__ is not int:
                        if index is UNINIT:
                            raise segv_fault("array subscript is uninitialized")
                        index = int(index)
                    return _load_element(base_c(frame), index)

                return run

            return make
        chain_m = self._lower_chain(expr, _load_chain)

        def make(rt):
            st, limit = rt.steps, rt.limit
            chain_c = chain_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                return chain_c(frame)

            return run

        return make

    def _lower_index_ref(self, expr: ast.Index):
        """Generic index chain → ref (mirrors ``_resolve_index``)."""
        return self._lower_chain(expr, _index_ref)

    def _lower_chain(self, expr: ast.Index, resolve):
        """Evaluate a generic index chain the walker's way — subscripts
        innermost first, each checked for UNINIT, then the base — and
        hand ``(base, indices)`` to ``resolve``."""
        index_makers = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            index_makers.append(self.lower_expr(node.index))
            node = node.base
        base_m = self.lower_expr(node)

        def make(rt):
            index_cs = tuple(m(rt) for m in index_makers)
            base_c = base_m(rt)

            def run(frame):
                indices = []
                for c in index_cs:
                    value = c(frame)
                    if value is UNINIT:
                        raise segv_fault("array subscript is uninitialized")
                    indices.append(int(value))
                indices.reverse()
                return resolve(base_c(frame), indices)

            return run

        return make

    # -- lvalues -----------------------------------------------------------

    def lower_lvalue(self, expr: ast.Expr):
        """Lower to a closure producing a ``_Ref``-style object."""
        if isinstance(expr, ast.Identifier):
            binding = self.resolve(expr.name)
            if binding is not None:
                slot, ctype = binding.slot, binding.ctype
                expr.slot = slot  # annotation

                def make(rt):
                    def run(frame):
                        return _SlotRef(frame, slot, ctype)

                    return run

                return make
            name = expr.name

            def make(rt):
                gvars = rt.gvars
                genv = rt.genv

                def run(frame):
                    if name not in gvars:
                        raise segv_fault(f"assignment to unknown symbol '{name}'")
                    return _VarRef(genv, name)

                return run

            return make
        if isinstance(expr, ast.Index):
            return self._lower_index_ref(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            operand_m = self.lower_expr(expr.operand)

            def make(rt):
                operand_c = operand_m(rt)

                def run(frame):
                    value = operand_c(frame)
                    if value is UNINIT or value == 0 or value is None:
                        raise segv_fault("dereference of NULL or uninitialized pointer")
                    if isinstance(value, CArray):
                        value = value.pointer()
                    if not isinstance(value, Pointer):
                        raise segv_fault("dereference of a non-pointer value")
                    return _PtrRef(value)

                return run

            return make
        message = f"expression is not assignable ({type(expr).__name__})"

        def make(rt):
            def run(frame):
                raise segv_fault(message)

            return run

        return make

    # -- directives --------------------------------------------------------
    #
    # Clause mappings, privates, reduction vars, implicit-aggregate
    # candidates, firstprivate-scalar snapshots and ``if``-clause
    # conditions are all computed HERE, once, instead of per execution.
    # Action makers take ``(rt, construct_c)`` so the lowered construct
    # closure is bound exactly once and shared with the if-false path.

    def _lower_directive(self, stmt: ast.DirectiveStmt):
        construct_m = (
            self.lower_stmt(stmt.construct) if stmt.construct is not None else None
        )
        d = stmt.directive
        if not isinstance(d, Directive):
            make_action = _passthrough_action
            cond_m = None
        else:
            if d.model == "acc":
                make_action = self._lower_acc_action(stmt, d)
            else:
                make_action = self._lower_omp_action(stmt, d)
            cond_m = self._lower_if_clause(d)

        def make(rt):
            st, limit = rt.steps, rt.limit
            construct_c = construct_m(rt) if construct_m is not None else None
            action_c = make_action(rt, construct_c)
            if cond_m is None:
                def run(frame):
                    st[0] = n = st[0] + 1
                    if n > limit:
                        raise StepLimitExceeded(limit)
                    action_c(frame)

                return run
            cond_c = cond_m(rt)

            def run(frame):
                st[0] = n = st[0] + 1
                if n > limit:
                    raise StepLimitExceeded(limit)
                try:
                    ok = truthy(cond_c(frame))
                except RuntimeFault:
                    ok = True
                if not ok:
                    if construct_c is not None:
                        construct_c(frame)
                    return
                action_c(frame)

            return run

        return make

    def _lower_if_clause(self, d: Directive):
        if not d.has_clause("if"):
            return None
        text = d.clause("if").argument or "1"
        if d.model == "omp":
            text = text.split(":")[-1]  # tolerate 'target:' modifier
        parsed = _parse_clause_expr(text)
        if parsed is None:
            return None  # walker treats unparseable conditions as true
        return self.lower_expr(parsed)

    def _lower_acc_action(self, stmt: ast.DirectiveStmt, d: Directive):
        name = d.name
        if name in Interpreter._ACC_COMPUTE:
            return self._lower_region(stmt, d, model="acc", compute=True)
        if name == "data":
            return self._lower_region(stmt, d, model="acc", compute=False)
        if name == "enter data":
            items = []
            for clause in d.clauses:
                sem = ACC_CLAUSE_SEMANTICS.get(clause.name)
                if sem is None:
                    continue
                items.append((sem[0], [self._ref(v) for v in clause.variables()]))
            return self._data_action(
                lambda device, block, enter_copy: device.map_block(block, copyin=enter_copy),
                items,
            )
        if name == "exit data":
            finalize = d.has_clause("finalize")
            items = []
            for clause in d.clauses:
                if clause.name not in ("copyout", "delete", "detach"):
                    continue
                items.append(
                    (clause.name == "copyout", [self._ref(v) for v in clause.variables()])
                )
            return self._data_action(
                lambda device, block, copyout: device.unmap_block(
                    block, copyout=copyout, finalize=finalize
                ),
                items,
            )
        if name == "update":
            items = []
            for clause in d.clauses:
                if clause.name in ("self", "host"):
                    items.append((False, [self._ref(v) for v in clause.variables()]))
                elif clause.name == "device":
                    items.append((True, [self._ref(v) for v in clause.variables()]))
            return self._data_action(
                lambda device, block, to_device: (
                    device.update_device(block) if to_device else device.update_host(block)
                ),
                items,
            )
        # host_data / loop / atomic / wait / init / ... : run the construct
        return _passthrough_action

    def _lower_omp_action(self, stmt: ast.DirectiveStmt, d: Directive):
        name = d.name
        if name in Interpreter._OMP_TARGET_COMPUTE:
            return self._lower_region(stmt, d, model="omp", compute=True)
        if name == "target data":
            return self._lower_region(stmt, d, model="omp", compute=False)
        if name in ("target enter data", "target exit data"):
            entering = name == "target enter data"
            items = []
            for clause in d.clauses:
                if clause.name != "map":
                    continue
                map_type = (
                    (clause.modifier() or ("to" if entering else "from"))
                    .split(",")[-1]
                    .strip()
                )
                enter_copy, exit_copy = OMP_MAP_SEMANTICS.get(map_type, (False, False))
                flag = enter_copy if entering else exit_copy
                items.append((flag, [self._ref(v) for v in clause.variables()]))
            if entering:
                return self._data_action(
                    lambda device, block, copyin: device.map_block(block, copyin=copyin),
                    items,
                )
            return self._data_action(
                lambda device, block, copyout: device.unmap_block(block, copyout=copyout),
                items,
            )
        if name == "target update":
            items = []
            for clause in d.clauses:
                if clause.name == "to":
                    items.append((True, [self._ref(v) for v in clause.variables()]))
                elif clause.name == "from":
                    items.append((False, [self._ref(v) for v in clause.variables()]))
            return self._data_action(
                lambda device, block, to_device: (
                    device.update_device(block) if to_device else device.update_host(block)
                ),
                items,
            )
        if name in Interpreter._OMP_HOST_PARALLEL:
            return self._lower_host_parallel(stmt, d)
        # atomic / barrier / taskwait / flush / declare target / ...
        return _passthrough_action

    def _data_action(self, apply_fn, items):
        """Standalone data directive: apply ``apply_fn`` per mapped block."""

        def make_action(rt, construct_c):
            interp = rt.interp
            gvars = rt.gvars

            def run(frame):
                device = interp.device
                for flag, refs in items:
                    for name, slot in refs:
                        value = frame[slot] if slot is not None else gvars.get(name)
                        block = block_of(value)
                        if block is not None:
                            apply_fn(device, block, flag)

            return run

        return make_action

    def _lower_region(self, stmt: ast.DirectiveStmt, d: Directive, model: str, compute: bool):
        """Structured data/compute region with a pre-computed plan."""
        mappings: dict[str, tuple[bool, bool, bool]] = {}
        privates: set[str] = set()
        for clause in d.clauses:
            if model == "acc" and clause.name in ACC_CLAUSE_SEMANTICS:
                sem = ACC_CLAUSE_SEMANTICS[clause.name]
                for v in clause.variables():
                    mappings[v] = sem
            elif model == "omp" and clause.name == "map":
                map_type = (clause.modifier() or "tofrom").split(",")[-1].strip()
                enter_copy, exit_copy = OMP_MAP_SEMANTICS.get(map_type, (True, True))
                for v in clause.variables():
                    mappings[v] = (enter_copy, exit_copy, False)
            elif clause.name in ("private", "firstprivate", "lastprivate"):
                privates.update(clause.variables())
        mapping_items = tuple(
            (nm, self._ref(nm)[1], enter, exit_, reqp)
            for nm, (enter, exit_, reqp) in mappings.items()
        )
        candidates: tuple = ()
        written: tuple = ()
        if compute:
            reduction: set[str] = set()
            for clause in d.clauses:
                if clause.name == "reduction":
                    reduction.update(clause.variables())
            explicit = set(mappings) | privates
            cand_list = []
            seen: set[str] = set()
            written_list = []
            wseen: set[str] = set()
            if stmt.construct is not None:
                for e in ast.walk_expressions(stmt.construct):
                    if isinstance(e, ast.Identifier) and e.name not in seen:
                        seen.add(e.name)
                        if e.name not in explicit:
                            cand_list.append(self._ref(e.name))
                    if isinstance(e, ast.Assignment) and isinstance(e.target, ast.Identifier):
                        wname = e.target.name
                    elif (
                        isinstance(e, ast.UnaryOp)
                        and e.op in ("++", "--")
                        and isinstance(e.operand, ast.Identifier)
                    ):
                        wname = e.operand.name
                    else:
                        continue
                    if wname not in wseen:
                        wseen.add(wname)
                        if wname not in reduction and wname not in explicit:
                            written_list.append(self._ref(wname))
            candidates = tuple(cand_list)
            written = tuple(written_list)

        def make_action(rt, construct_c):
            interp = rt.interp
            gvars = rt.gvars

            def run(frame):
                device = interp.device
                entered = []
                overrides = []
                for name, slot, enter_copy, exit_copy, require_present in mapping_items:
                    value = frame[slot] if slot is not None else gvars.get(name)
                    if value is None or value is UNINIT:
                        raise segv_fault(f"mapping of uninitialized pointer '{name}'")
                    block = block_of(value)
                    if block is None:
                        continue  # scalar in a data clause: firstprivate-like
                    if require_present:
                        device_block = device.require_present(block, name)
                    else:
                        device_block = device.map_block(block, copyin=enter_copy)
                        entered.append((block, exit_copy))
                    if compute:
                        overrides.append((slot, name, value))
                        shadow = shadow_value(value, device_block)
                        if slot is not None:
                            frame[slot] = shadow
                        else:
                            gvars[name] = shadow
                snapshot = []
                if compute:
                    # implicit present-or-copy for referenced aggregates
                    for name, slot in candidates:
                        value = frame[slot] if slot is not None else gvars.get(name)
                        block = block_of(value)
                        if block is None or block.device:
                            continue
                        device_block = device.device_block(block)
                        if device_block is None:
                            device_block = device.map_block(block, copyin=True)
                            entered.append((block, True))  # implicit copy
                        overrides.append((slot, name, value))
                        shadow = shadow_value(value, device_block)
                        if slot is not None:
                            frame[slot] = shadow
                        else:
                            gvars[name] = shadow
                    # scalars written in the region default to firstprivate
                    for name, slot in written:
                        if slot is not None:
                            value = frame[slot]
                        elif name in gvars:
                            value = gvars[name]
                        else:
                            continue
                        if isinstance(value, (int, float)) and not isinstance(value, bool):
                            snapshot.append((slot, name, value))
                prev_compute = interp.in_compute_region
                if compute:
                    interp.in_compute_region = True
                try:
                    if construct_c is not None:
                        construct_c(frame)
                finally:
                    interp.in_compute_region = prev_compute
                    for slot, name, value in reversed(overrides):
                        if slot is not None:
                            frame[slot] = value
                        else:
                            gvars[name] = value
                    for block, copyout in reversed(entered):
                        device.unmap_block(block, copyout=copyout)
                    for slot, name, value in snapshot:
                        if slot is not None:
                            frame[slot] = value
                        else:
                            gvars[name] = value

            return run

        return make_action

    def _lower_host_parallel(self, stmt: ast.DirectiveStmt, d: Directive):
        priv_items = []
        for clause in d.clauses:
            if clause.name in ("private", "firstprivate"):
                for v in clause.variables():
                    priv_items.append((*self._ref(v), clause.name == "private"))
        lastprivate = frozenset(
            name
            for clause in d.clauses
            if clause.name == "lastprivate"
            for name in clause.variables()
        )
        flag_on = d.name.startswith(("parallel", "teams")) or " parallel" in d.name

        def make_action(rt, construct_c):
            interp = rt.interp
            gvars = rt.gvars

            def run(frame):
                saved: dict[str, tuple] = {}
                for name, slot, is_private in priv_items:
                    if slot is None and name not in gvars:
                        continue
                    value = frame[slot] if slot is not None else gvars[name]
                    saved[name] = (slot, value)
                    if is_private:
                        if isinstance(value, float):
                            if slot is not None:
                                frame[slot] = 0.0
                            else:
                                gvars[name] = 0.0
                        elif isinstance(value, int):
                            if slot is not None:
                                frame[slot] = 0
                            else:
                                gvars[name] = 0
                prev = interp.in_parallel_region
                if flag_on:
                    interp.in_parallel_region = True
                try:
                    if construct_c is not None:
                        construct_c(frame)
                finally:
                    interp.in_parallel_region = prev
                    for name, (slot, value) in saved.items():
                        if name not in lastprivate:
                            if slot is not None:
                                frame[slot] = value
                            else:
                                gvars[name] = value

            return run

        return make_action


# ---------------------------------------------------------------------------
# small shared builders
# ---------------------------------------------------------------------------


def _lower_fused_binary(op: str, left_plan, right_plan):
    """Both operands pure: batch the 3 ticks, read slots/consts inline."""
    is_cmp = op in _CMP_FNS
    fn = _CMP_FNS[op] if is_cmp else _ARITH_FNS[op]
    left_kind, left_val = left_plan
    right_kind, right_val = right_plan
    left_slot = left_val if left_kind == "slot" else None
    right_slot = right_val if right_kind == "slot" else None
    left_const = left_val if left_kind == "const" else None
    right_const = right_val if right_kind == "const" else None

    def make(rt):
        st, limit = rt.steps, rt.limit
        if is_cmp:
            def run(frame):
                st[0] = n = st[0] + 3
                if n > limit:
                    st[0] = limit + 1
                    raise StepLimitExceeded(limit)
                l = frame[left_slot] if left_slot is not None else left_const
                r = frame[right_slot] if right_slot is not None else right_const
                lc = l.__class__
                rc = r.__class__
                if (lc is int or lc is float) and (rc is int or rc is float):
                    return 1 if fn(l, r) else 0
                return combine_binary(op, l, r)
        else:
            def run(frame):
                st[0] = n = st[0] + 3
                if n > limit:
                    st[0] = limit + 1
                    raise StepLimitExceeded(limit)
                l = frame[left_slot] if left_slot is not None else left_const
                r = frame[right_slot] if right_slot is not None else right_const
                lc = l.__class__
                rc = r.__class__
                if (lc is int or lc is float) and (rc is int or rc is float):
                    return fn(l, r)
                return combine_binary(op, l, r)
        return run

    return make


def _passthrough_action(rt, construct_c):
    """Directive with no runtime effect: execute the construct, if any."""

    def run(frame):
        if construct_c is not None:
            construct_c(frame)

    return run


def _lower_const(value):
    def make(rt):
        st, limit = rt.steps, rt.limit

        def run(frame):
            st[0] = n = st[0] + 1
            if n > limit:
                raise StepLimitExceeded(limit)
            return value

        return run

    return make


def _lower_signal(signal_cls):
    def make(rt):
        st, limit = rt.steps, rt.limit

        def run(frame):
            st[0] = n = st[0] + 1
            if n > limit:
                raise StepLimitExceeded(limit)
            raise signal_cls()

        return run

    return make


def _lower_raiser(fault: RuntimeFault):
    message, returncode, stderr = str(fault), fault.returncode, fault.stderr

    def make(rt):
        st, limit = rt.steps, rt.limit

        def run(frame):
            st[0] = n = st[0] + 1
            if n > limit:
                raise StepLimitExceeded(limit)
            raise RuntimeFault(message, returncode, stderr)

        return run

    return make
