"""Codegen backend: emit Python source per function, run CPython bytecode.

The closure backend (:mod:`repro.runtime.compilebody`) pays one Python
closure call per AST node per execution.  This module removes that last
dispatch layer: each ``FunctionDef`` is walked **once** and translated
to plain Python source — a ``_mkN(rt, C)`` maker function whose nested
``call(args)`` *is* the function body, with slot-resolved locals read
straight out of the flat ``frame`` list and tick accounting inlined at
every point the walker would tick.  ``compile()`` turns the emitted
module into CPython bytecode, so the hot path is the CPython eval loop
itself rather than a tree of closure calls.

Two-stage shape, mirroring ``lower_unit``:

1. :func:`compile_unit` translates and ``compile()``\\ s the unit once,
   memoized on the ``TranslationUnit`` object (``_codegen_program``), so
   cached :class:`~repro.compiler.driver.CompileResult`\\ s carry their
   generated code objects to every later execution for free;
2. :func:`call_main` binds a per-run
   :class:`~repro.runtime.compilebody._Runtime` — executing each maker
   captures the step cell, globals, builtins and per-function constants
   in closure cells (micro-seconds per run).

Semantics are **shared**, not re-implemented: generated code calls the
same helper layer the closure backend uses (``combine_binary``,
``_load_element``/``_store_target``/``_store_value``, ``_SlotRef`` /
``_VarRef`` / ``_PtrRef``, ``coerce_to_type`` …), and the directive
machinery (pre-parsed clause plans, ``make_action(rt, construct)``
factories) is inherited verbatim from ``compilebody._Lowerer`` —
directive constructs are emitted as nested ``def _consK(frame)``
functions and bound through the exact same action factories.

Tick placement and step-limit renormalization mirror the walker
exactly — including the fused superinstructions with their
``st[0] = L + 1`` renormalization on overflow — so ``ExecutionResult``
(returncode, stdout, stderr, fault, timed_out **and steps**) stays
byte-identical across all three backends, which
``tests/test_backend_equivalence.py`` asserts corpus-wide and the
N-arm differential fuzzer (:mod:`repro.fuzz.differential`) hammers on
machine-grown programs.

``walk`` remains the executable spec; this backend exists purely so
CPython's own bytecode loop runs the hot path (target: ≥ 2x the
closure backend on loop-heavy programs, see
``benchmarks/test_interpreter_throughput.py``).
"""

from __future__ import annotations

import math

from repro.compiler import astnodes as ast
from repro.compiler.pragma import Directive
from repro.runtime.builtins import Builtins, _MATH_WRAPPERS
from repro.runtime.compilebody import (
    _FLT,
    _Lowerer,
    _RAW,
    _Runtime,
    _S32,
    _SlotRef,
    _chain_target,
    _chain_target2,
    _charge_subscripts,
    _coerce_kind,
    _load_cell,
    _load_chain,
    _load_element,
    _load_element2,
    _parse_clause_expr,
    _passthrough_action,
    _static_flatten,
    _store_target,
    _store_value,
)
from repro.runtime.interpreter import (
    RuntimeFault,
    StepLimitExceeded,
    _BreakSignal,
    _ContinueSignal,
    _PtrRef,
    _ReturnSignal,
    _VarRef,
    _index_ref,
    combine_binary,
    combine_compound,
    segv_fault,
    unary_value,
)
from repro.runtime.values import (
    CArray,
    Pointer,
    UNINIT,
    coerce_to_type,
    sizeof_type,
    truthy,
)

__all__ = ["compile_unit", "call_main", "CodegenProgram", "CodegenFunction"]


#: Helper namespace every generated module executes in.  Generated code
#: reaches semantics through these names only — one shared layer with
#: the walker and the closure backend, so a semantics fix lands in all
#: three backends at once.
_HELPERS = {
    "_SLE": StepLimitExceeded,
    "_RF": RuntimeFault,
    "_BRK": _BreakSignal,
    "_CNT": _ContinueSignal,
    "_RET": _ReturnSignal,
    "_segv": segv_fault,
    "_truthy": truthy,
    "_coerce": coerce_to_type,
    "_CArray": CArray,
    "_Pointer": Pointer,
    "_UNINIT": UNINIT,
    "_cb": combine_binary,
    "_ccomp": combine_compound,
    "_uv": unary_value,
    "_load_element": _load_element,
    "_load_element2": _load_element2,
    "_load_chain": _load_chain,
    "_load_cell": _load_cell,
    "_charge_subscripts": _charge_subscripts,
    "_chain_target": _chain_target,
    "_chain_target2": _chain_target2,
    "_index_ref": _index_ref,
    "_store_target": _store_target,
    "_store_value": _store_value,
    "_SlotRef": _SlotRef,
    "_VarRef": _VarRef,
    "_PtrRef": _PtrRef,
}

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*")

#: Hot helper names shadowed as default args on every generated
#: ``call``/``_consK`` so the inner loop hits LOAD_FAST instead of
#: LOAD_GLOBAL on the exec'd module dict.
_HOT_DEFAULTS = ", ".join(
    f"{n}={n}"
    for n in (
        "_SLE",
        "_UNINIT",
        "_coerce",
        "_cb",
        "_ccomp",
        "_truthy",
        "_segv",
        "_load_element",
        "_load_element2",
        "_charge_subscripts",
        "_chain_target2",
        "_load_cell",
        "_store_target",
        "_store_value",
    )
)


class CodegenFunction:
    """One translated function: its maker plus frame layout."""

    __slots__ = ("name", "nslots", "param_specs", "maker", "consts")

    def __init__(self, name, nslots, param_specs, maker, consts):
        self.name = name
        self.nslots = nslots
        self.param_specs = param_specs
        self.maker = maker
        self.consts = consts


class CodegenProgram:
    """All function bodies of one unit, emitted and compiled once."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.functions: dict[str, CodegenFunction] = {}
        chunks: list[str] = []
        entries = []
        for fn in unit.functions:
            if fn.body is None or fn.name in {e[0] for e in entries}:
                continue
            emitter = _FnEmitter(unit, f"_mk{len(entries)}")
            lines, consts, nslots, param_specs = emitter.emit_function(fn)
            chunks.append("\n".join(lines))
            entries.append((fn.name, emitter.maker_name, consts, nslots, param_specs))
        self.source = "\n\n".join(chunks) + "\n"
        self.code = compile(self.source, "<repro-codegen>", "exec")
        namespace = dict(_HELPERS)
        exec(self.code, namespace)
        for name, maker_name, consts, nslots, param_specs in entries:
            self.functions[name] = CodegenFunction(
                name, nslots, param_specs, namespace[maker_name], consts
            )


def compile_unit(unit: ast.TranslationUnit) -> CodegenProgram:
    """Translate ``unit``, memoizing the result on the unit object."""
    program = getattr(unit, "_codegen_program", None)
    if program is None:
        program = CodegenProgram(unit)
        unit._codegen_program = program
    return program


def call_main(interp) -> object:
    """Bind the generated program to ``interp`` and run ``main()``."""
    program = compile_unit(interp.unit)
    rt = _Runtime(interp)
    for name, fn in program.functions.items():
        rt.functions[name] = fn.maker(rt, fn.consts)
    return rt.functions["main"]([])


# ---------------------------------------------------------------------------
# emission buffers
# ---------------------------------------------------------------------------


class _Buf:
    __slots__ = ("lines", "ind")

    def __init__(self, indent: int = 0):
        self.lines: list[str] = []
        self.ind = indent

    def w(self, text: str) -> None:
        self.lines.append("    " * self.ind + text)


# ---------------------------------------------------------------------------
# the per-function emitter
# ---------------------------------------------------------------------------


class _FnEmitter(_Lowerer):
    """Emit one function body as Python source.

    Subclasses the closure backend's lowerer for its scope discipline
    (``push_scope``/``declare``/``resolve``/``_ref``) and its directive
    action factories (``_lower_acc_action`` / ``_lower_omp_action`` and
    friends use only ``self._ref`` plus lower-time plans, so they work
    unchanged) — guaranteeing slot assignment and directive plans are
    identical to the closure backend by construction.
    """

    def __init__(self, unit: ast.TranslationUnit, maker_name: str):
        super().__init__(unit)
        self.maker_name = maker_name
        self.consts: list = []
        self.builtin_binds: list[tuple[str, str]] = []
        self.defs: list[_Buf] = []  # completed construct defs + bindings
        self.body = _Buf(indent=3)  # inside try: inside call inside maker
        self.cur = self.body
        self.ntmp = 0
        self.ncons = 0
        self.nested = 0  # > 0 while emitting inside a construct def
        self.pending = 0  # accrued ticks not yet charged

    # -- tiny emission helpers --------------------------------------------
    #
    # Ticks are LAZY: ``tick()``/``tick3()`` accrue into ``pending`` and
    # ``flush()`` charges them as one batched increment.  ``w()`` flushes
    # before every emitted line; ``wp()`` is for provably pure lines
    # (frame reads, literal binds) that may sit inside a tick batch.
    # This is the closure backend's fused-superinstruction argument
    # generalized: within a region containing only pure operations, the
    # charge point is unobservable — the only escape is the step-limit
    # raise itself, and the ``st[0] = L + 1`` renormalization makes the
    # observed count identical to the walker's tick-by-tick charging no
    # matter where inside the batch the limit fell.  ``flush()`` is
    # forced before anything that can fault, print, or branch.

    def w(self, text: str) -> None:
        self.flush()
        self.cur.w(text)

    def wp(self, text: str) -> None:
        self.cur.w(text)

    def flush(self) -> None:
        k = self.pending
        if not k:
            return
        self.pending = 0
        if k == 1:
            self.cur.w("st[0] = _n = st[0] + 1")
            self.cur.w("if _n > L:")
            self.cur.w("    raise _SLE(L)")
        else:
            self.cur.w(f"st[0] = _n = st[0] + {k}")
            self.cur.w("if _n > L:")
            self.cur.w("    st[0] = L + 1")
            self.cur.w("    raise _SLE(L)")

    def indent(self) -> None:
        self.cur.ind += 1

    def dedent(self) -> None:
        # charge anything accrued inside the block before leaving it: a
        # batch must never cross a branch join or a loop back-edge
        self.flush()
        self.cur.ind -= 1

    def tmp(self) -> str:
        self.ntmp += 1
        return f"t{self.ntmp}"

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def literal(self, value) -> str:
        """Embeddable atom for a constant, falling back to a cell."""
        if value.__class__ is int or value.__class__ is str:
            return f"({value!r})"
        if value.__class__ is float and math.isfinite(value):
            return f"({value!r})"
        return self.const(value)

    def bind(self, atom: str) -> str:
        """Materialize ``atom`` into a temp unless it already is one."""
        if atom[0] == "t" and atom[1:].isdigit():
            return atom
        t = self.tmp()
        if atom.startswith(("frame[", "(")):
            self.wp(f"{t} = {atom}")  # pure: may sit inside a tick batch
        else:
            self.w(f"{t} = {atom}")
        return t

    def bind_ro(self, atom: str) -> str:
        """``bind`` for read-only uses: literal atoms pass through.

        A literal cannot be mutated by later evaluation, so leaving it
        inline keeps its static class visible to the fast-path folder
        (no temp store, no runtime class check).
        """
        if atom[0] == "(" and self._atom_static(atom) is not None:
            return atom
        return self.bind(atom)

    def tick(self) -> None:
        self.pending += 1

    def tick3(self) -> None:
        self.pending += 3

    @staticmethod
    def truthy_cond(atom: str) -> str:
        return f"({atom} != 0 if {atom}.__class__ is int else _truthy({atom}))"

    @staticmethod
    def _num_check(atom: str) -> str:
        return f"({atom}.__class__ is int or {atom}.__class__ is float)"

    @staticmethod
    def _atom_static(atom: str):
        """int/float/str for literal atoms, None for dynamic ones."""
        import ast as pyast

        try:
            return type(pyast.literal_eval(atom))
        except (ValueError, SyntaxError):
            return None

    def _fold_coerce(self, atom: str, ctype) -> str | None:
        """Coerce a numeric literal atom at lower time.

        Runs the same ``coerce_to_type`` the emitted code would call, so
        the folded constant is identical by construction; returns None
        when the atom is dynamic or the result isn't a plain number.
        """
        import ast as pyast

        try:
            value = pyast.literal_eval(atom)
        except (ValueError, SyntaxError):
            return None
        if type(value) not in (int, float):
            return None
        try:
            folded = coerce_to_type(value, ctype)
        except Exception:
            return None
        if type(folded) not in (int, float):
            return None
        return self.literal(folded)

    # -- entry -------------------------------------------------------------

    def emit_function(self, fn: ast.FunctionDef):
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
        for stmt in fn.body.body:
            self.emit_stmt(stmt)
        self.flush()
        if not self.body.lines:
            self.body.w("pass")
        self.pop_scope()
        self.pop_scope()
        fn.frame_slots = self.nslots  # annotation for tests/debugging

        # assemble `def call` (may allocate the param-spec const)
        cb = _Buf(indent=1)
        cb.w(f"def call(args, st=st, L=L, {_HOT_DEFAULTS}):")
        cb.ind = 2
        cb.w("interp._call_depth += 1")
        cb.w("if interp._call_depth > 200:")
        cb.w("    interp._call_depth -= 1")
        cb.w("    raise _segv('stack overflow (recursion too deep)')")
        cb.w(f"frame = [None] * {self.nslots}")
        nparams = len(param_specs)
        if nparams:
            ps = self.const(tuple(param_specs))
            cb.w(f"for _spec, _value in zip({ps}, args):")
            cb.w("    if _spec is not None:")
            cb.w("        if isinstance(_value, _CArray):")
            cb.w("            _value = _value.pointer()")
            cb.w("        frame[_spec[0]] = _coerce(_value, _spec[1])")
            cb.w(f"if len(args) < {nparams}:")
            cb.w(f"    for _spec in {ps}[len(args):]:")
            cb.w("        if _spec is not None:")
            cb.w("            frame[_spec[0]] = 0")
        cb.w("try:")
        cb.lines.extend(self.body.lines)
        cb.w("except _RET as _r:")
        cb.w("    return _r.value")
        cb.w("finally:")
        cb.w("    interp._call_depth -= 1")
        cb.w("return None")
        cb.ind = 1
        cb.w("return call")

        # preamble last: the const count is final only now
        head = _Buf()
        head.w(f"def {self.maker_name}(rt, C):")
        head.ind = 1
        for line in (
            "st = rt.steps",
            "L = rt.limit",
            "interp = rt.interp",
            "gvars = rt.gvars",
            "gtypes = rt.gtypes",
            "genv = rt.genv",
            "fns = rt.functions",
        ):
            head.w(line)
        for i in range(len(self.consts)):
            head.w(f"c{i} = C[{i}]")
        for name, attr in self.builtin_binds:
            head.w(f"{name} = getattr(rt.builtins, {attr!r})")
        lines = head.lines
        for buf in self.defs:
            lines.extend(buf.lines)
        lines.extend(cb.lines)
        return lines, tuple(self.consts), self.nslots, tuple(param_specs)

    # -- statements --------------------------------------------------------

    def emit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Declaration):
            self._emit_declaration(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.tick()
            if stmt.expr is not None:
                self.emit_expr(stmt.expr)
        elif isinstance(stmt, ast.Compound):
            self.tick()
            self.push_scope()
            for child in stmt.body:
                self.emit_stmt(child)
            self.pop_scope()
        elif isinstance(stmt, ast.If):
            self._emit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._emit_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._emit_dowhile(stmt)
        elif isinstance(stmt, ast.For):
            self._emit_for(stmt)
        elif isinstance(stmt, ast.Return):
            self.tick()
            atom = self.emit_expr(stmt.value) if stmt.value is not None else "None"
            if self.nested:
                self.w(f"raise _RET({atom})")
            else:
                self.w(f"return {atom}")
        elif isinstance(stmt, ast.Break):
            self.tick()
            self.w("raise _BRK()")
        elif isinstance(stmt, ast.Continue):
            self.tick()
            self.w("raise _CNT()")
        elif isinstance(stmt, ast.DirectiveStmt):
            self._emit_directive(stmt)
        else:
            self.tick()
            message = f"unsupported statement {type(stmt).__name__}"
            self.w(f"raise _RF({message!r}, 1, '')")

    def _emit_if(self, stmt: ast.If) -> None:
        self.tick()
        cond = self.bind_ro(self.emit_expr(stmt.cond))
        self.w(f"if {self.truthy_cond(cond)}:")
        self.indent()
        self.emit_stmt(stmt.then)
        self.dedent()
        if stmt.otherwise is not None:
            self.w("else:")
            self.indent()
            self.emit_stmt(stmt.otherwise)
            self.dedent()

    def _emit_loop_body(self, body: ast.Stmt, continue_action: str) -> None:
        # deliberately no flush: the iteration tick batches with the
        # body's first ticks; the step-limit raise passes through the
        # _BRK/_CNT handlers unchanged, so the charge point is still
        # inside the loop and before any observable work
        self.wp("try:")
        self.indent()
        self.emit_stmt(body)
        self.dedent()
        self.w("except _BRK:")
        self.w("    break")
        self.w("except _CNT:")
        self.w(f"    {continue_action}")

    def _emit_while(self, stmt: ast.While) -> None:
        self.tick()
        self.w("while True:")
        self.indent()
        cond = self.bind_ro(self.emit_expr(stmt.cond))
        self.w(f"if not {self.truthy_cond(cond)}:")
        self.w("    break")
        self.tick()
        self._emit_loop_body(stmt.body, "continue")
        self.dedent()

    def _emit_dowhile(self, stmt: ast.DoWhile) -> None:
        self.tick()
        self.w("while True:")
        self.indent()
        self.tick()
        self._emit_loop_body(stmt.body, "pass")
        cond = self.bind_ro(self.emit_expr(stmt.cond))
        self.w(f"if not {self.truthy_cond(cond)}:")
        self.w("    break")
        self.dedent()

    def _emit_for(self, stmt: ast.For) -> None:
        self.push_scope()
        self.tick()
        if stmt.init is not None:
            self.emit_stmt(stmt.init)
        self.w("while True:")
        self.indent()
        if stmt.cond is not None:
            cond = self.bind_ro(self.emit_expr(stmt.cond))
            self.w(f"if not {self.truthy_cond(cond)}:")
            self.w("    break")
        self.tick()
        self._emit_loop_body(stmt.body, "pass")
        if stmt.step is not None:
            self.emit_expr(stmt.step)
        self.dedent()
        self.pop_scope()

    # -- declarations ------------------------------------------------------

    def _emit_declaration(self, decl: ast.Declaration) -> None:
        self.tick()
        for d in decl.declarators:
            if d.is_array:
                self._emit_array_declarator(d)
            else:
                self._emit_scalar_declarator(d)

    def _emit_scalar_declarator(self, d: ast.Declarator) -> None:
        ctype = d.ctype
        if d.init is not None:
            # initializer resolves in the scope BEFORE the new binding
            atom = self.emit_expr(d.init)
            binding = self.declare(d.name, ctype)
            d.slot = binding.slot  # annotation
            folded = self._fold_coerce(atom, ctype)
            if folded is not None:
                self.w(f"frame[{binding.slot}] = {folded}")
            else:
                self.w(f"frame[{binding.slot}] = _coerce({atom}, {self.const(ctype)})")
            return
        binding = self.declare(d.name, ctype)
        d.slot = binding.slot  # annotation
        if ctype.is_pointer:
            default = "_UNINIT"
        elif ctype.is_floating:
            default = "0.0"
        else:
            default = "0"
        self.w(f"frame[{binding.slot}] = {default}")

    def _emit_array_declarator(self, d: ast.Declarator) -> None:
        ctype = d.ctype
        elem_size = sizeof_type(ctype)
        dim_atoms = []
        for dim in d.array_dims:
            if dim is None:
                dim_atoms.append("0")
            else:
                atom = self.emit_expr(dim)
                dim_atoms.append(self.bind(f"max(0, int({atom}))"))
        # item initializers resolve pre-declaration but run after the
        # CArray is constructed (mirrors the closure backend's order)
        item_atoms = None
        if isinstance(d.init, ast.InitList):
            self.flush()  # ticks so far charge before the splice point
            items_buf = _Buf(indent=self.cur.ind)
            outer = self.cur
            self.cur = items_buf
            item_atoms = [self.bind(self.emit_expr(item)) for item in _static_flatten(d.init)]
            self.flush()  # item ticks charge inside the spliced block
            self.cur = outer
        binding = self.declare(d.name, ctype.pointer_to())
        d.slot = binding.slot  # annotation
        arr = self.tmp()
        self.w(f"{arr} = _CArray({self.const(ctype)}, [{', '.join(dim_atoms)}])")
        if item_atoms is not None:
            self.cur.lines.extend(items_buf.lines)
            flat = self.tmp()
            self.w(f"{flat} = [{', '.join(item_atoms)}]")
            blk = self.tmp()
            self.w(f"{blk} = {arr}.block")
            self.w(f"for _i, _v in enumerate({flat}[:{arr}.flat_length()]):")
            self.w(
                f"    {blk}.store(_i * {elem_size}, {elem_size},"
                f" _coerce(_v, {self.const(ctype)}))"
            )
        self.w(f"frame[{binding.slot}] = {arr}")

    # -- expressions -------------------------------------------------------

    def emit_expr(self, expr: ast.Expr) -> str:
        """Emit prelude code; return a pure atom holding the value."""
        if isinstance(expr, ast.IntLiteral):
            self.tick()
            return self.literal(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            self.tick()
            return self.literal(expr.value)
        if isinstance(expr, ast.StringLiteral):
            self.tick()
            return self.literal(expr.value)
        if isinstance(expr, ast.CharLiteral):
            self.tick()
            return self.literal(ord(expr.value[0]) if expr.value else 0)
        if isinstance(expr, ast.Identifier):
            return self._emit_identifier(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._emit_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._emit_unary(expr)
        if isinstance(expr, ast.Assignment):
            return self._emit_assignment(expr)
        if isinstance(expr, ast.Conditional):
            return self._emit_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._emit_call(expr)
        if isinstance(expr, ast.Index):
            return self._emit_index_load(expr)
        if isinstance(expr, ast.Cast):
            return self._emit_cast(expr)
        if isinstance(expr, ast.SizeOf):
            return self._emit_sizeof(expr)
        if isinstance(expr, ast.CommaExpr):
            return self._emit_comma(expr)
        if isinstance(expr, ast.Member):
            self.tick()
            self.w(
                "raise _RF('struct member access is not supported by this"
                " substrate', 1, 'runtime error: unsupported struct access\\n')"
            )
            return "(0)"
        if isinstance(expr, ast.InitList):
            self.tick()
            atoms = [self.bind(self.emit_expr(item)) for item in expr.items]
            t = self.tmp()
            self.w(f"{t} = [{', '.join(atoms)}]")
            return t
        self.tick()
        message = f"unsupported expression {type(expr).__name__}"
        self.w(f"raise _RF({message!r}, 1, '')")
        return "(0)"

    def _emit_identifier(self, expr: ast.Identifier) -> str:
        binding = self.resolve(expr.name)
        self.tick()
        if binding is not None:
            expr.slot = binding.slot  # annotation
            return f"frame[{binding.slot}]"
        t = self.tmp()
        self.w("try:")
        self.w(f"    {t} = gvars[{expr.name!r}]")
        self.w("except KeyError:")
        message = f"use of unknown symbol '{expr.name}'"
        self.w(f"    raise _segv({message!r}) from None")
        return t

    # -- binary ------------------------------------------------------------

    def _emit_binary(self, expr: ast.BinaryOp) -> str:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_logical(expr, op == "&&")
        if op in _CMP_OPS or op in _ARITH_OPS:
            left_plan = self._simple_operand(expr.left)
            right_plan = self._simple_operand(expr.right)
            if left_plan is not None and right_plan is not None:
                return self._emit_fused_binary(op, left_plan, right_plan)
        self.tick()
        l = self.bind_ro(self.emit_expr(expr.left))
        r = self.bind_ro(self.emit_expr(expr.right))
        if op in _ARITH_OPS or op in _CMP_OPS:
            return self._emit_numeric_fastpath(op, l, r)
        t = self.tmp()
        self.w(f"{t} = _cb({op!r}, {l}, {r})")
        return t

    def _emit_logical(self, expr: ast.BinaryOp, is_and: bool) -> str:
        self.tick()
        l = self.bind_ro(self.emit_expr(expr.left))
        t = self.tmp()
        if is_and:
            self.w(f"if {self.truthy_cond(l)}:")
            self.indent()
            r = self.bind_ro(self.emit_expr(expr.right))
            self.w(f"{t} = 1 if {self.truthy_cond(r)} else 0")
            self.dedent()
            self.w("else:")
            self.w(f"    {t} = 0")
        else:
            self.w(f"if {self.truthy_cond(l)}:")
            self.w(f"    {t} = 1")
            self.w("else:")
            self.indent()
            r = self.bind_ro(self.emit_expr(expr.right))
            self.w(f"{t} = 1 if {self.truthy_cond(r)} else 0")
            self.dedent()
        return t

    def _plan_atom(self, plan) -> str:
        kind, value = plan
        if kind == "slot":
            return self.bind(f"frame[{value}]")
        return self.literal(value)

    def _emit_fused_binary(self, op: str, left_plan, right_plan) -> str:
        self.tick3()
        l = self._plan_atom(left_plan)
        r = self._plan_atom(right_plan)
        return self._emit_numeric_fastpath(op, l, r)

    def _emit_numeric_fastpath(self, op: str, l: str, r: str) -> str:
        """Shared shape of the closure backend's int/float fast paths."""
        if op in _CMP_OPS:
            fast = f"1 if {l} {op} {r} else 0"
        else:
            fast = f"{l} {op} {r}"
        slow = f"_cb({op!r}, {l}, {r})"
        checks = []
        statically_slow = False
        for atom in (l, r):
            static = self._atom_static(atom)
            if static is None:
                checks.append(self._num_check(atom))
            elif static not in (int, float):
                statically_slow = True
        t = self.tmp()
        if statically_slow:
            self.w(f"{t} = {slow}")
        elif not checks:
            self.w(f"{t} = {fast}")
        else:
            self.w(f"if {' and '.join(checks)}:")
            self.w(f"    {t} = {fast}")
            self.w("else:")
            self.w(f"    {t} = {slow}")
        return t

    # -- unary -------------------------------------------------------------

    def _emit_unary(self, expr: ast.UnaryOp) -> str:
        op = expr.op
        if op in ("++", "--"):
            return self._emit_incdec(expr)
        if op == "&":
            self.tick()
            ref = self.emit_lvalue(expr.operand)
            t = self.tmp()
            self.w(f"{t} = {ref}.address()")
            return t
        if op == "*":
            self.tick()
            v = self.bind(self.emit_expr(expr.operand))
            self.w(f"if {v} is _UNINIT or {v} == 0 or {v} is None:")
            self.w("    raise _segv('dereference of NULL or uninitialized pointer')")
            self.w(f"if isinstance({v}, _CArray):")
            self.w(f"    {v} = {v}.pointer()")
            self.w(f"if not isinstance({v}, _Pointer):")
            self.w("    raise _segv('dereference of a non-pointer value')")
            loaded = self.tmp()
            self.w(f"{loaded} = {v}.load()")
            t = self.tmp()
            self.w(f"{t} = 0 if {loaded} is _UNINIT else {loaded}")
            return t
        self.tick()
        v = self.bind_ro(self.emit_expr(expr.operand))
        static = self._atom_static(v)
        if static in (int, float):
            # fold at lower time: mirrors the fast paths below exactly
            import ast as pyast

            value = pyast.literal_eval(v)
            if op == "!" and static is int:
                return self.literal(0 if value != 0 else 1)
            if op == "-":
                return self.literal(-value)
        t = self.tmp()
        if op == "!":
            self.w(f"if {v}.__class__ is int:")
            self.w(f"    {t} = 0 if {v} != 0 else 1")
            self.w("else:")
            self.w(f"    {t} = _uv('!', {v})")
        elif op == "-":
            self.w(f"if {self._num_check(v)}:")
            self.w(f"    {t} = -{v}")
            self.w("else:")
            self.w(f"    {t} = _uv('-', {v})")
        else:
            self.w(f"{t} = _uv({op!r}, {v})")
        return t

    def _emit_incdec(self, expr: ast.UnaryOp) -> str:
        delta = 1 if expr.op == "++" else -1
        prefix = expr.prefix
        target = expr.operand
        if isinstance(target, ast.Identifier):
            binding = self.resolve(target.name)
            if binding is not None:
                slot, ctype = binding.slot, binding.ctype
                kind = _coerce_kind(ctype)
                target.slot = slot  # annotation
                self.tick()
                old = self.tmp()
                new = self.tmp()
                ct = self.const(ctype) if ctype is not None else None
                self.wp(f"{old} = frame[{slot}]")
                self.w(f"if {old}.__class__ is int:")
                self.indent()
                self.w(f"{new} = {old} + {delta}")
                if kind == _S32:
                    self.w(f"if -2147483648 <= {new} <= 2147483647:")
                    self.w(f"    frame[{slot}] = {new}")
                    self.w("else:")
                    self.w(f"    frame[{slot}] = _coerce({new}, {ct})")
                elif ctype is not None:
                    # walker coerces on every store: an int in a
                    # float-typed slot must become float
                    self.w(f"frame[{slot}] = _coerce({new}, {ct})")
                else:
                    self.w(f"frame[{slot}] = {new}")
                self.dedent()
                self.w("else:")
                self.indent()
                self.w(f"if {old} is _UNINIT:")
                self.w(f"    {old} = 0")
                self.w(f"if isinstance({old}, _Pointer):")
                self.w(f"    {new} = {old}.add({delta})")
                self.w("else:")
                self.w(f"    {new} = {old} + {delta}")
                if ctype is not None:
                    self.w(f"frame[{slot}] = _coerce({new}, {ct})")
                else:
                    self.w(f"frame[{slot}] = {new}")
                self.dedent()
                # postfix yields the pre-increment temp (0-folded when
                # UNINIT), prefix the post-increment one: no join temp
                return new if prefix else old
        self.tick()
        ref = self.emit_lvalue(target)
        old = self.tmp()
        new = self.tmp()
        self.w(f"{old} = {ref}.load()")
        self.w(f"if {old} is _UNINIT:")
        self.w(f"    {old} = 0")
        self.w(f"if isinstance({old}, _Pointer):")
        self.w(f"    {new} = {old}.add({delta})")
        self.w("else:")
        self.w(f"    {new} = {old} + {delta}")
        self.w(f"{ref}.store({new})")
        return new if prefix else old

    # -- conditional / comma / cast / sizeof -------------------------------

    def _emit_conditional(self, expr: ast.Conditional) -> str:
        self.tick()
        cond = self.bind_ro(self.emit_expr(expr.cond))
        t = self.tmp()
        self.w(f"if {self.truthy_cond(cond)}:")
        self.indent()
        then_atom = self.emit_expr(expr.then)
        self.w(f"{t} = {then_atom}")
        self.dedent()
        self.w("else:")
        self.indent()
        else_atom = self.emit_expr(expr.otherwise)
        self.w(f"{t} = {else_atom}")
        self.dedent()
        return t

    def _emit_comma(self, expr: ast.CommaExpr) -> str:
        self.tick()
        result = "(0)"
        for part in expr.parts:
            result = self.emit_expr(part)
        return result

    def _emit_cast(self, expr: ast.Cast) -> str:
        target_type = expr.target_type
        pointee = target_type.pointee() if target_type.is_pointer else None
        self.tick()
        v = self.bind(self.emit_expr(expr.operand))
        t = self.tmp()
        if pointee is not None:
            self.w(f"if isinstance({v}, _Pointer):")
            self.w(f"    {t} = {v}.retag({self.const(pointee)})")
            self.w(f"elif isinstance({v}, _CArray):")
            self.w(f"    {t} = {v}")
            self.w("else:")
            self.w(f"    {t} = _coerce({v}, {self.const(target_type)})")
        else:
            self.w(f"if isinstance({v}, (_Pointer, _CArray)):")
            self.w(f"    {t} = {v}")
            self.w("else:")
            self.w(f"    {t} = _coerce({v}, {self.const(target_type)})")
        return t

    def _emit_sizeof(self, expr: ast.SizeOf) -> str:
        if expr.target_type is not None:
            self.tick()
            return self.literal(sizeof_type(expr.target_type))
        self.tick()
        v = self.bind(self.emit_expr(expr.operand)) if expr.operand is not None else "(0)"
        t = self.tmp()
        self.w(f"if isinstance({v}, _CArray):")
        self.w(f"    {t} = {v}.block.size")
        self.w(f"elif isinstance({v}, _Pointer):")
        self.w(f"    {t} = 8")
        self.w(f"elif isinstance({v}, float):")
        self.w(f"    {t} = 8")
        self.w("else:")
        self.w(f"    {t} = 4")
        return t

    # -- calls -------------------------------------------------------------

    def _emit_call(self, expr: ast.Call) -> str:
        name = expr.callee
        self.tick()
        atoms = [self.bind_ro(self.emit_expr(arg)) for arg in expr.args]
        arglist = ", ".join(atoms)
        t = self.tmp()
        if self.unit.function(name) is not None:
            self.w(f"{t} = fns[{name!r}]([{arglist}])")
            return t
        attr = f"fn_{name}"
        callee = None
        if hasattr(Builtins, attr):
            callee = f"b{len(self.builtin_binds)}"
            self.builtin_binds.append((callee, attr))
        elif name in _MATH_WRAPPERS:
            callee = self.const(_MATH_WRAPPERS[name])
        if callee is not None:
            message = f"bad call to {name}: "
            self.w("try:")
            self.w(f"    {t} = {callee}({arglist})")
            self.w("except (TypeError, IndexError) as _exc:")
            self.w(
                f"    raise _RF({message!r} + str(_exc), 139,"
                " 'Segmentation fault (core dumped)\\n') from _exc"
            )
            return t
        message = f"call to undefined function '{name}'"
        stderr = f"symbol lookup error: undefined symbol: {name}\n"
        self.w(f"raise _RF({message!r}, 127, {stderr!r})")
        return "(0)"

    # -- assignment --------------------------------------------------------

    def _emit_assignment(self, expr: ast.Assignment) -> str:
        target = expr.target
        if isinstance(target, ast.Index):
            fused = self._fused_chain(target)
            if fused is not None:
                binop = None if expr.op == "=" else expr.op[:-1]
                return self._emit_fused_assign(*fused, binop, expr.value)
            if expr.op == "=" and not isinstance(target.base, ast.Index):
                return self._emit_index_assign(target, expr.value)
        if expr.op == "=":
            if isinstance(target, ast.Identifier):
                binding = self.resolve(target.name)
                if binding is not None:
                    return self._emit_slot_assign(binding, target, expr.value)
                return self._emit_global_assign(target.name, expr.value)
            self.tick()
            ref = self.emit_lvalue(target)
            v = self.bind_ro(self.emit_expr(expr.value))
            self.w(f"{ref}.store({v})")
            return v
        binop = expr.op[:-1]
        if isinstance(target, ast.Identifier):
            binding = self.resolve(target.name)
            if binding is not None:
                return self._emit_slot_compound(binding, target, binop, expr.value)
        self.tick()
        ref = self.emit_lvalue(target)
        v = self.bind_ro(self.emit_expr(expr.value))
        old = self.tmp()
        combined = self.tmp()
        self.w(f"{old} = {ref}.load()")
        self.w(f"if {old} is _UNINIT:")
        self.w(f"    {old} = 0")
        self.w(f"{combined} = _ccomp({binop!r}, {old}, {v})")
        self.w(f"{ref}.store({combined})")
        return combined

    def _emit_store_by_kind(self, slot: int, kind: int, ctype, value: str) -> None:
        """Kind-specialized slot store (closure `_lower_slot_assign`)."""
        if kind == _RAW:
            self.w(f"frame[{slot}] = {value}")
            return
        folded = self._fold_coerce(value, ctype)
        if folded is not None:
            self.w(f"frame[{slot}] = {folded}")
            return
        ct = self.const(ctype)
        if kind == _S32:
            self.w(
                f"if {value}.__class__ is int and"
                f" -2147483648 <= {value} <= 2147483647:"
            )
            self.w(f"    frame[{slot}] = {value}")
            self.w("else:")
            self.w(f"    frame[{slot}] = _coerce({value}, {ct})")
        elif kind == _FLT:
            self.w(f"if {value}.__class__ is float:")
            self.w(f"    frame[{slot}] = {value}")
            self.w("else:")
            self.w(f"    frame[{slot}] = _coerce({value}, {ct})")
        else:
            self.w(f"frame[{slot}] = _coerce({value}, {ct})")

    def _emit_slot_assign(self, binding, target: ast.Identifier, value: ast.Expr) -> str:
        slot, ctype = binding.slot, binding.ctype
        kind = _coerce_kind(ctype)
        target.slot = slot  # annotation
        self.tick()
        v = self.bind_ro(self.emit_expr(value))
        self._emit_store_by_kind(slot, kind, ctype, v)
        return v

    def _emit_global_assign(self, name: str, value: ast.Expr) -> str:
        self.tick()
        message = f"assignment to unknown symbol '{name}'"
        self.w(f"if {name!r} not in gvars:")
        self.w(f"    raise _segv({message!r})")
        v = self.bind_ro(self.emit_expr(value))
        ct = self.tmp()
        self.w(f"{ct} = gtypes.get({name!r})")
        self.w(f"gvars[{name!r}] = _coerce({v}, {ct}) if {ct} is not None else {v}")
        return v

    def _emit_slot_compound(
        self, binding, target: ast.Identifier, binop: str, value: ast.Expr
    ) -> str:
        slot, ctype = binding.slot, binding.ctype
        kind = _coerce_kind(ctype)
        target.slot = slot  # annotation
        self.tick()
        v = self.bind_ro(self.emit_expr(value))
        old = self.tmp()
        self.w(f"{old} = frame[{slot}]")
        self.w(f"if {old} is _UNINIT:")
        self.w(f"    {old} = 0")
        combined = self._emit_combine(binop, old, v)
        self._emit_store_by_kind(slot, kind, ctype, combined)
        return combined

    def _emit_combine(self, binop: str, old: str, v: str) -> str:
        """``old binop v`` for a compound assignment, with the numeric
        fast path; ``old`` is already UNINIT-normalised."""
        fast_arith = binop in _ARITH_OPS
        combined = self.tmp()
        static = self._atom_static(v)
        if static is not None and static not in (int, float):
            fast_arith = False  # e.g. string literal: always the slow path
        if fast_arith:
            checks = [self._num_check(old)]
            if static is None:
                checks.append(self._num_check(v))
            self.w(f"if {' and '.join(checks)}:")
            self.w(f"    {combined} = {old} {binop} {v}")
            self.w("else:")
            self.w(f"    {combined} = _ccomp({binop!r}, {old}, {v})")
        else:
            self.w(f"{combined} = _ccomp({binop!r}, {old}, {v})")
        return combined

    def _emit_fused_assign(self, base_slot: int, subs, binop, value: ast.Expr) -> str:
        """Fused ``a[i]...[k] = v`` / ``op=`` (closure ``_lower_fused_assign``)."""
        atoms = self._emit_fused_subscripts(subs)
        dest = [self.tmp() for _ in range(4)]
        dest_s = ", ".join(dest)
        if len(atoms) == 1:
            self.w(f"{dest_s} = _store_target(frame[{base_slot}], {atoms[0]})")
        elif len(atoms) == 2:
            self.w(f"{dest_s} = _chain_target2(frame[{base_slot}], {atoms[0]}, {atoms[1]})")
        else:
            self.w(f"{dest_s} = _chain_target(frame[{base_slot}], [{', '.join(atoms)}])")
        v = self.bind_ro(self.emit_expr(value))
        if binop is None:
            self.w(f"_store_value({dest_s}, {v})")
            return v
        old = self.tmp()
        self.w(f"{old} = _load_cell({dest[0]}, {dest[1]}, {dest[2]})")
        self.w(f"if {old} is _UNINIT:")
        self.w(f"    {old} = 0")
        combined = self._emit_combine(binop, old, v)
        self.w(f"_store_value({dest_s}, {combined})")
        return combined

    def _emit_fused_subscripts(self, subs) -> list[str]:
        """Charge a fused chain's ticks (closure ``_lower_fused_load``)
        and return its int subscript atoms, source order."""
        ticks = len(subs) + 2
        if not any(is_slot for is_slot, _ in subs):
            self.pending += ticks  # constants only: nothing can fault
            return [self.literal(v) for _, v in subs]
        atoms = [self.bind(f"frame[{v}]" if is_slot else self.literal(v)) for is_slot, v in subs]
        checks = " and ".join(
            f"{a}.__class__ is int" for (is_slot, _), a in zip(subs, atoms) if is_slot
        )
        # ticks accrued before the chain are pure too: they join its batch
        # on the int path and are charged ahead of the walker-order replay
        earlier, self.pending = self.pending, 0
        self.w(f"if {checks}:")
        self.indent()
        self.pending = earlier + ticks
        self.dedent()
        self.w("else:")
        self.indent()
        self.pending = earlier
        self.w(f"{', '.join(atoms)}, = _charge_subscripts(st, L, ({', '.join(atoms)},))")
        self.dedent()
        return atoms

    def _emit_index_assign(self, target: ast.Index, value: ast.Expr) -> str:
        """``base[i] = value`` with a single, non-fused subscript.

        Mirrors the walker's order: resolve the destination (index and
        base first, bounds checked), THEN evaluate the right-hand side.
        """
        dest = [self.tmp() for _ in range(4)]
        dest_s = ", ".join(dest)
        self.tick()
        index = self.bind(self.emit_expr(target.index))
        i = self._emit_subscript_int(index)
        base = self.emit_expr(target.base)
        self.w(f"{dest_s} = _store_target({base}, {i})")
        v = self.bind_ro(self.emit_expr(value))
        self.w(f"_store_value({dest_s}, {v})")
        return v

    def _emit_subscript_int(self, atom: str) -> str:
        """Normalize a subscript to int, faulting on UNINIT."""
        i = self.bind(atom)
        self.w(f"if {i}.__class__ is not int:")
        self.w(f"    if {i} is _UNINIT:")
        self.w("        raise _segv('array subscript is uninitialized')")
        self.w(f"    {i} = int({i})")
        return i

    # -- index loads -------------------------------------------------------

    def _emit_index_load(self, expr: ast.Index) -> str:
        t = self.tmp()
        fused = self._fused_chain(expr)
        if fused is not None:
            base_slot, subs = fused
            atoms = self._emit_fused_subscripts(subs)
            if len(atoms) == 1:
                load = f"_load_element(frame[{base_slot}], {atoms[0]})"
            elif len(atoms) == 2:
                load = f"_load_element2(frame[{base_slot}], {atoms[0]}, {atoms[1]})"
            else:
                load = f"_load_chain(frame[{base_slot}], [{', '.join(atoms)}])"
            self.w(f"{t} = {load}")
            return t
        self.tick()
        if not isinstance(expr.base, ast.Index):
            index = self.bind(self.emit_expr(expr.index))
            i = self._emit_subscript_int(index)
            base = self.emit_expr(expr.base)
            self.w(f"{t} = _load_element({base}, {i})")
            return t
        base, indices = self._emit_chain(expr)
        self.w(f"{t} = _load_chain({base}, {indices})")
        return t

    def _emit_index_ref(self, expr: ast.Index) -> str:
        """Generic index chain → ref (mirrors ``_resolve_index``)."""
        base, indices = self._emit_chain(expr)
        ref = self.tmp()
        self.w(f"{ref} = _index_ref({base}, {indices})")
        return ref

    def _emit_chain(self, expr: ast.Index) -> tuple[str, str]:
        """Evaluate a generic index chain the walker's way (closure
        ``_lower_chain``) → (base atom, int-indices list atom)."""
        indices = self.tmp()
        self.w(f"{indices} = []")
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            v = self.bind(self.emit_expr(node.index))
            self.w(f"if {v} is _UNINIT:")
            self.w("    raise _segv('array subscript is uninitialized')")
            self.w(f"{indices}.append(int({v}))")
            node = node.base
        self.w(f"{indices}.reverse()")
        return self.bind(self.emit_expr(node)), indices

    # -- lvalues -----------------------------------------------------------

    def emit_lvalue(self, expr: ast.Expr) -> str:
        """Emit code producing a ``_Ref``-style object; return its atom."""
        if isinstance(expr, ast.Identifier):
            binding = self.resolve(expr.name)
            t = self.tmp()
            if binding is not None:
                expr.slot = binding.slot  # annotation
                ct = self.const(binding.ctype) if binding.ctype is not None else "None"
                self.w(f"{t} = _SlotRef(frame, {binding.slot}, {ct})")
                return t
            message = f"assignment to unknown symbol '{expr.name}'"
            self.w(f"if {expr.name!r} not in gvars:")
            self.w(f"    raise _segv({message!r})")
            self.w(f"{t} = _VarRef(genv, {expr.name!r})")
            return t
        if isinstance(expr, ast.Index):
            return self._emit_index_ref(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            v = self.bind(self.emit_expr(expr.operand))
            self.w(f"if {v} is _UNINIT or {v} == 0 or {v} is None:")
            self.w("    raise _segv('dereference of NULL or uninitialized pointer')")
            self.w(f"if isinstance({v}, _CArray):")
            self.w(f"    {v} = {v}.pointer()")
            self.w(f"if not isinstance({v}, _Pointer):")
            self.w("    raise _segv('dereference of a non-pointer value')")
            t = self.tmp()
            self.w(f"{t} = _PtrRef({v})")
            return t
        message = f"expression is not assignable ({type(expr).__name__})"
        self.w(f"raise _segv({message!r})")
        return "(0)"

    # -- directives --------------------------------------------------------
    #
    # The action factories (`_lower_acc_action` / `_lower_omp_action`,
    # `_lower_region`, `_data_action`, `_lower_host_parallel`) are
    # INHERITED from the closure backend's lowerer: they pre-compute
    # clause plans with `self._ref` at lower time and only need a
    # `construct(frame)` callable at bind time — which codegen provides
    # as a nested generated function.

    def _emit_directive(self, stmt: ast.DirectiveStmt) -> None:
        cons_name = "None"
        if stmt.construct is not None:
            cons_name = f"_cons{self.ncons}"
            self.ncons += 1
            self.flush()  # pending ticks belong to the enclosing body
            buf = _Buf(indent=1)
            outer = self.cur
            self.cur = buf
            self.nested += 1
            self.w(f"def {cons_name}(frame, st=st, L=L, {_HOT_DEFAULTS}):")
            self.indent()
            self.emit_stmt(stmt.construct)
            self.dedent()
            self.nested -= 1
            self.cur = outer
            self.defs.append(buf)
        d = stmt.directive
        cond_expr = None
        if not isinstance(d, Directive):
            make_action = _passthrough_action
        else:
            if d.model == "acc":
                make_action = self._lower_acc_action(stmt, d)
            else:
                make_action = self._lower_omp_action(stmt, d)
            cond_expr = self._clause_cond_expr(d)
        action = f"a{self.ncons}_{len(self.defs)}"
        bind_buf = _Buf(indent=1)
        bind_buf.w(f"{action} = {self.const(make_action)}(rt, {cons_name})")
        self.defs.append(bind_buf)
        self.tick()
        if cond_expr is None:
            self.w(f"{action}(frame)")
            return
        ok = self.tmp()
        self.w("try:")
        self.indent()
        cond_atom = self.emit_expr(cond_expr)
        self.w(f"{ok} = _truthy({cond_atom})")
        self.dedent()
        self.w("except _RF:")
        self.w(f"    {ok} = True")
        self.w(f"if {ok}:")
        self.w(f"    {action}(frame)")
        elif_body = f"{cons_name}(frame)" if cons_name != "None" else "pass"
        self.w("else:")
        self.w(f"    {elif_body}")

    def _clause_cond_expr(self, d: Directive) -> ast.Expr | None:
        """Pre-parse the ``if`` clause (closure `_lower_if_clause`)."""
        if not d.has_clause("if"):
            return None
        text = d.clause("if").argument or "1"
        if d.model == "omp":
            text = text.split(":")[-1]  # tolerate 'target:' modifier
        return _parse_clause_expr(text)  # None = treat as true
