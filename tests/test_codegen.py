"""Unit tests for the codegen backend: source emission, memoization,
frame layout, directive plans, faults and step-limit renormalization.

Corpus-wide byte-equivalence with the walker lives in
``tests/test_backend_equivalence.py``; this file exercises the pieces
specific to :mod:`repro.runtime.codegen` — the two-stage translate/bind
split, the generated source itself, and the batched step accounting
that must stay indistinguishable from the walker's tick-by-tick count.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import Compiler
from repro.runtime.codegen import CodegenProgram, compile_unit
from repro.runtime.executor import Executor
from repro.runtime.interpreter import EXECUTION_BACKENDS, Interpreter


def compile_source(source: str, flavor: str = "acc", filename: str = "t.c"):
    compiled = Compiler(model=flavor).compile(source, filename)
    assert compiled.ok, compiled.stderr
    return compiled


def run(compiled, backend: str = "codegen", step_limit: int = 2_000_000):
    return Executor(step_limit=step_limit, backend=backend).run(compiled)


# ----------------------------------------------------------------------
# translation stage: memoization and generated source
# ----------------------------------------------------------------------


class TestTranslation:
    def test_compile_unit_memoizes_on_the_unit(self):
        compiled = compile_source("int main() { return 0; }")
        first = compile_unit(compiled.unit)
        second = compile_unit(compiled.unit)
        assert first is second
        assert isinstance(first, CodegenProgram)
        assert compiled.unit._codegen_program is first

    def test_repeated_runs_share_one_program(self):
        """The expensive translate+compile() happens once; every run
        only re-binds the cached code objects to a fresh interpreter."""
        compiled = compile_source(
            "int main() { int s = 0;"
            " for (int i = 0; i < 50; i++) { s += i; }"
            " return s > 1000 ? 1 : 0; }"
        )
        a = run(compiled)
        program = compiled.unit._codegen_program
        b = run(compiled)
        assert compiled.unit._codegen_program is program
        assert a == b

    def test_only_bodies_are_translated(self):
        compiled = compile_source(
            "double frexp2(double x);\n"
            "int helper(int n) { return n + 1; }\n"
            "int main() { return helper(1) - 2; }\n"
        )
        program = compile_unit(compiled.unit)
        assert set(program.functions) == {"helper", "main"}

    def test_source_is_real_compiled_python(self):
        compiled = compile_source(
            "int main() { int x = 1; x = x + 1; return x; }"
        )
        program = compile_unit(compiled.unit)
        # one maker per function, compiled from the emitted source
        assert "def _mk0(" in program.source
        assert program.code.co_filename == "<repro-codegen>"
        # step charges are batched: the emitted charge bumps the shared
        # one-cell counter and renormalizes to L+1 on overflow
        assert "st[0] = _n = st[0] +" in program.source
        assert "raise _SLE(L)" in program.source

    def test_hot_helpers_are_bound_as_locals(self):
        """The hot helper names are shadowed as default arguments so the
        generated bodies hit LOAD_FAST instead of global lookups."""
        compiled = compile_source("int main() { return 0; }")
        program = compile_unit(compiled.unit)
        assert "def call(args, st=st, L=L," in program.source

    def test_frame_layout_slot_per_declaration(self):
        compiled = compile_source(
            "int main() {\n"
            "    int a = 1;\n"
            "    { int a = 2; int b = a; }\n"
            "    for (int i = 0; i < 3; i++) { int t = i; a += t; }\n"
            "    return a;\n"
            "}\n"
        )
        program = compile_unit(compiled.unit)
        # a, inner a, b, i, t: shadowing never reuses a slot
        assert program.functions["main"].nslots >= 5

    def test_param_specs_cover_parameters(self):
        compiled = compile_source(
            "int add(int a, int b) { return a + b; }\n"
            "int main() { return add(2, 3); }\n"
        )
        program = compile_unit(compiled.unit)
        assert len(program.functions["add"].param_specs) == 2
        assert len(program.functions["main"].param_specs) == 0


# ----------------------------------------------------------------------
# binding stage: behavior through the Executor
# ----------------------------------------------------------------------


class TestExecution:
    def test_slot_shadowing_resolved(self):
        compiled = compile_source(r"""
            #include <stdio.h>
            int main() {
                int x = 1;
                { int x = 2; printf("inner=%d\n", x); }
                printf("outer=%d\n", x);
                return 0;
            }
        """)
        result = run(compiled)
        assert result.stdout == "inner=2\nouter=1\n"
        assert result == run(compiled, backend="walk")

    def test_directive_plan_reduction(self):
        compiled = compile_source(r"""
            #include <stdio.h>
            int main() {
                int s = 0;
                #pragma acc parallel loop reduction(+:s)
                for (int i = 0; i < 10; i++) { s += i; }
                printf("%d\n", s);
                return s == 45 ? 0 : 1;
            }
        """)
        result = run(compiled)
        assert result.returncode == 0
        assert result.stdout == "45\n"
        assert result == run(compiled, backend="walk")

    def test_directive_plan_data_movement(self):
        compiled = compile_source(r"""
            #include <stdio.h>
            #define N 6
            int main() {
                int a[N];
                #pragma acc parallel loop copyout(a[0:N])
                for (int i = 0; i < N; i++) { a[i] = i * i; }
                int total = 0;
                for (int i = 0; i < N; i++) { total += a[i]; }
                printf("%d\n", total);
                return 0;
            }
        """)
        result = run(compiled)
        assert result.stdout == "55\n"
        assert result == run(compiled, backend="walk")

    def test_fault_out_of_bounds(self):
        compiled = compile_source(r"""
            #include <stdio.h>
            int main() {
                int a[3];
                a[0] = 1;
                printf("before\n");
                a[7] = 2;
                printf("after\n");
                return 0;
            }
        """)
        result = run(compiled)
        assert result.returncode == 139
        assert result.fault is not None
        assert result.stdout == "before\n"
        assert result == run(compiled, backend="walk")

    def test_fault_stack_overflow(self):
        compiled = compile_source(r"""
            int deep(int n) { return n == 0 ? 0 : deep(n - 1); }
            int main() { return deep(100000); }
        """)
        result = run(compiled)
        assert result.returncode == 139
        assert result.fault == "stack overflow (recursion too deep)"
        assert result == run(compiled, backend="walk")

    def test_invalid_backend_rejected(self):
        compiled = compile_source("int main() { return 0; }")
        with pytest.raises(ValueError, match="backend"):
            Interpreter(compiled.unit, backend="bytecode")
        assert "bytecode" not in EXECUTION_BACKENDS


# ----------------------------------------------------------------------
# step-limit renormalization
# ----------------------------------------------------------------------

LOOP = "int main() { int i = 0; while (1) { i = i + 1; } return i; }"


class TestStepLimit:
    def test_timeout_is_renormalized_to_limit_plus_one(self):
        compiled = compile_source(LOOP)
        result = run(compiled, step_limit=5_000)
        assert result.timed_out
        assert result.returncode == 124
        assert result.steps == 5_001

    @pytest.mark.parametrize("limit", [4_998, 4_999, 5_000, 5_001, 5_002])
    def test_mid_batch_limits_match_the_walker(self, limit):
        """Codegen charges ticks in batches; whatever phase of a batch
        the limit lands in, the observable count must equal the
        walker's tick-by-tick count exactly."""
        compiled = compile_source(LOOP)
        walk = run(compiled, backend="walk", step_limit=limit)
        code = run(compiled, backend="codegen", step_limit=limit)
        assert code == walk
        assert code.steps == limit + 1

    def test_finishing_program_step_counts_match(self):
        compiled = compile_source(
            "int main() { int s = 0;"
            " for (int i = 0; i < 200; i++) { s += i; }"
            " return s > 10000 ? 1 : 0; }"
        )
        results = {b: run(compiled, backend=b) for b in EXECUTION_BACKENDS}
        walk = results["walk"]
        assert not walk.timed_out
        for backend, result in results.items():
            assert result.steps == walk.steps, backend
