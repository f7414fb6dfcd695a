"""Unit tests for the closure-compilation backend's lowering machinery:
memoization, frame layout, slot annotations and the per-run binding."""

from __future__ import annotations

from repro.compiler import astnodes as ast
from repro.compiler.driver import Compiler
from repro.runtime.compilebody import LoweredProgram, lower_unit
from repro.runtime.executor import Executor
from repro.runtime.interpreter import Interpreter


def compile_unit(source: str, flavor: str = "acc"):
    compiled = Compiler(model=flavor).compile(source, "t.c")
    assert compiled.ok, compiled.stderr
    return compiled


class TestLowering:
    def test_lower_unit_memoizes_on_the_unit(self):
        compiled = compile_unit("int main() { return 0; }")
        first = lower_unit(compiled.unit)
        second = lower_unit(compiled.unit)
        assert first is second
        assert isinstance(first, LoweredProgram)

    def test_only_bodies_are_lowered(self):
        compiled = compile_unit(
            "double frexp2(double x);\n"
            "int helper(int n) { return n + 1; }\n"
            "int main() { return helper(1) - 2; }\n"
        )
        program = lower_unit(compiled.unit)
        assert set(program.functions) == {"helper", "main"}

    def test_frame_slots_annotation(self):
        compiled = compile_unit(
            "int main() {\n"
            "    int a = 1;\n"
            "    { int a = 2; int b = a; }\n"
            "    for (int i = 0; i < 3; i++) { int t = i; a += t; }\n"
            "    return a;\n"
            "}\n"
        )
        lower_unit(compiled.unit)
        main = compiled.unit.function("main")
        # a, inner a, b, i, t -> five distinct slots (shadowing never reuses)
        assert main.frame_slots == 5

    def test_identifier_slot_annotations(self):
        compiled = compile_unit(
            "int main() { int x = 1; int y = x + 1; return y; }"
        )
        lower_unit(compiled.unit)
        slots = [
            (expr.name, expr.slot)
            for expr in ast.walk_expressions(compiled.unit.function("main").body)
            if isinstance(expr, ast.Identifier)
        ]
        # the x inside `x + 1` resolved to slot 0, the returned y to slot 1
        assert slots == [("x", 0), ("y", 1)]

    def test_param_slots_bind_arguments(self):
        compiled = compile_unit(
            "int add3(int a, int b, int c) { return a + b + c; }\n"
            "int main() { return add3(1, 2, 3); }\n"
        )
        program = lower_unit(compiled.unit)
        add3 = program.functions["add3"]
        assert [spec[0] for spec in add3.param_specs] == [0, 1, 2]
        result = Executor(backend="closure").run(compiled)
        assert result.returncode == 6


class TestInterpreterBackendSurface:
    def test_invalid_backend_rejected(self):
        compiled = compile_unit("int main() { return 0; }")
        try:
            Interpreter(compiled.unit, backend="jit")
        except ValueError as exc:
            assert "backend" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_interpreter_public_surface_unchanged(self):
        compiled = compile_unit(
            '#include <stdio.h>\nint main() { printf("hi\\n"); return 4; }'
        )
        interp = Interpreter(compiled.unit, backend="closure")
        rc = interp.run()
        assert rc == 4
        assert "".join(interp.stdout) == "hi\n"
        assert interp.steps > 0

    def test_executor_backend_default_is_closure(self):
        assert Executor().backend == "closure"
