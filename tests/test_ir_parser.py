"""Round-trip tests for the textual IR parser."""

import pytest

from repro.ir import ParseError, module_to_text, parse_module, verify_module
from repro.runtime import Interpreter
from helpers import (
    build_call_program,
    build_counted_loop,
    build_diamond,
    build_figure4_region,
    build_linear_sum,
    build_nested_loops,
)


def roundtrip(module):
    text = module_to_text(module)
    reparsed = parse_module(text)
    assert module_to_text(reparsed) == text
    verify_module(reparsed)
    return reparsed


class TestRoundTrip:
    def test_fixtures_roundtrip_and_run_identically(self):
        cases = [
            (build_linear_sum, (), ("out",)),
            (build_diamond, (), ("out",)),
            (build_counted_loop, (), ("arr",)),
            (build_nested_loops, (), ("mat",)),
            (build_call_program, (), ("out",)),
            (build_figure4_region, (5,), ("mem",)),
        ]
        for build, args, outputs in cases:
            module = build()[0]
            reparsed = roundtrip(module)
            original = Interpreter(module).run(
                "main", args, output_objects=outputs
            )
            again = Interpreter(reparsed).run(
                "main", args, output_objects=outputs
            )
            assert again.value == original.value, build.__name__
            assert again.output == original.output, build.__name__
            assert again.events == original.events, build.__name__

    def test_workloads_roundtrip(self):
        from repro.workloads import build_workload

        for name in ("164.gzip", "172.mgrid", "g721decode", "175.vpr"):
            built = build_workload(name)
            reparsed = roundtrip(built.module)
            original = Interpreter(built.module).run(
                built.entry, built.args, output_objects=built.output_objects
            )
            again = Interpreter(reparsed).run(
                built.entry, built.args, output_objects=built.output_objects
            )
            assert again.output == original.output, name

    def test_every_shipped_workload_roundtrips(self):
        """Printer ↔ parser is the identity over the whole corpus.

        Property: for every registered workload (spec_int, spec_fp,
        mediabench), print → parse → print is a fixpoint, the reparsed
        module verifies, and it executes identically to the original.
        """
        from repro.workloads import all_workloads

        for spec in all_workloads():
            built = spec.build()
            reparsed = roundtrip(built.module)
            original = Interpreter(built.module).run(
                built.entry, built.args,
                output_objects=built.output_objects,
            )
            again = Interpreter(reparsed).run(
                built.entry, built.args,
                output_objects=built.output_objects,
            )
            assert again.value == original.value, spec.name
            assert again.output == original.output, spec.name
            assert again.events == original.events, spec.name

    def test_every_shipped_workload_roundtrips_instrumented(self):
        from repro.encore import EncoreConfig, compile_for_encore
        from repro.workloads import all_workloads

        config = EncoreConfig()
        for spec in all_workloads():
            built = spec.build()
            report = compile_for_encore(built.module, config, clone=True)
            roundtrip(report.module)

    def test_every_threaded_workload_roundtrips(self):
        """spawn/join survive the printer ↔ parser round trip.

        Same property as the single-threaded corpus test, but over the
        multithreaded suite and executed through the full scheduler:
        the reparsed module must reproduce the value, outputs, event
        count *and* every scheduler switch decision.
        """
        from repro.runtime import make_interpreter
        from repro.workloads import threaded_workloads

        for spec in threaded_workloads():
            built = spec.build()
            text = module_to_text(built.module)
            assert spec.name == "serial_stencil" or "spawn" in text
            reparsed = roundtrip(built.module)

            def run(module):
                interp = make_interpreter(module)
                result = interp.run(
                    built.entry, built.args,
                    output_objects=built.output_objects,
                )
                sched = interp.scheduler
                switches = None if sched is None else tuple(sched.switch_log)
                return result, switches

            original, switches = run(built.module)
            again, switches_again = run(reparsed)
            assert again.value == original.value, spec.name
            assert again.output == original.output, spec.name
            assert again.events == original.events, spec.name
            assert switches_again == switches, spec.name

    def test_every_threaded_workload_roundtrips_instrumented(self):
        from repro.encore import EncoreConfig, compile_for_encore
        from repro.workloads import threaded_workloads

        config = EncoreConfig()
        for spec in threaded_workloads():
            built = spec.build()
            report = compile_for_encore(
                built.module, config, clone=True,
                function=built.entry, args=built.args,
            )
            roundtrip(report.module)

    def test_comment_lines_skipped(self):
        """``#`` lines (example/corpus provenance headers) parse away."""
        text = (
            "# provenance: checked-in example\n"
            "module commented\n"
            "# mid-file comment\n"
            "func main() {\n"
            "entry:\n"
            "  # indented comment\n"
            "  %x = mov 5\n"
            "  ret %x\n"
            "}\n"
        )
        module = parse_module(text)
        assert Interpreter(module).run("main").value == 5

    def test_empty_initializer_roundtrips(self):
        """Regression: ``= []`` used to reparse as *no* initializer."""
        from repro.ir import Module

        module = Module("empties")
        module.add_global("empty", 2, init=[])
        module.add_global("bare", 2)
        reparsed = roundtrip(module)
        assert reparsed.globals["empty"].init == []
        assert reparsed.globals["bare"].init is None

    def test_instrumented_module_roundtrips(self):
        from repro.encore import EncoreConfig, compile_for_encore

        module, _ = build_counted_loop(10)
        report = compile_for_encore(module, EncoreConfig(), clone=True)
        reparsed = roundtrip(report.module)
        a = Interpreter(report.module).run("main", output_objects=["arr"])
        c = Interpreter(reparsed).run("main", output_objects=["arr"])
        assert a.output == c.output
        assert c.instrumentation_cost == a.instrumentation_cost

    def test_initializers_preserved(self):
        from repro.ir import IRBuilder, Module

        module = Module("init")
        module.add_global("data", 4, init=[1, -2, 3])
        module.add_global("fdata", 2, init=[0.5, -1.25])
        func = module.add_function("main")
        b = IRBuilder(func)
        b.block("entry")
        x = b.load(module.globals["data"], 1)
        y = b.load(module.globals["fdata"], 1)
        b.ret(x)
        reparsed = roundtrip(module)
        assert reparsed.globals["data"].init == [1, -2, 3]
        assert reparsed.globals["fdata"].init == [0.5, -1.25]

    def test_stack_objects_preserved(self):
        from repro.ir import IRBuilder, Module

        module = Module("stacky")
        func = module.add_function("main")
        buf = func.add_stack_object("buf", 3, init=[9])
        b = IRBuilder(func)
        b.block("entry")
        v = b.load(buf, 0)
        b.ret(v)
        reparsed = roundtrip(module)
        obj = reparsed.function("main").stack_objects["buf"]
        assert obj.kind == "stack" and obj.size == 3 and obj.init == [9]

    def test_pointer_type_inference(self):
        from repro.ir import IRBuilder, Module, Type

        module = Module("ptrs")
        arr = module.add_global("arr", 4)
        func = module.add_function("main")
        b = IRBuilder(func)
        b.block("entry")
        p = b.addrof(arr, 1)
        b.store(p, 0, 42)
        q = b.alloc(2)
        b.store(q, 1, 7)
        v = b.load(arr, 1)
        b.ret(v)
        reparsed = roundtrip(module)
        assert Interpreter(reparsed).run("main").value == 42


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_module("")

    def test_missing_module_header(self):
        with pytest.raises(ParseError, match="module header"):
            parse_module("func f() {\nentry:\n  ret\n}")

    def test_unknown_instruction(self):
        text = "module m\n\nfunc main() {\nentry:\n  %x = frobnicate 1\n  ret\n}"
        with pytest.raises(ParseError, match="unknown instruction"):
            parse_module(text)

    def test_unknown_memory_object(self):
        text = "module m\n\nfunc main() {\nentry:\n  %x = load @ghost[0]\n  ret\n}"
        with pytest.raises(ParseError, match="unknown memory object"):
            parse_module(text)

    def test_instruction_outside_block(self):
        text = "module m\n\nfunc main() {\n  %x = mov 1\n}"
        with pytest.raises(ParseError, match="outside a block"):
            parse_module(text)

    def test_bad_operand(self):
        text = "module m\n\nfunc main() {\nentry:\n  %x = mov banana\n  ret\n}"
        with pytest.raises(ParseError, match="bad operand"):
            parse_module(text)

    def test_duplicate_global_in_example_names_its_line(self):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "ir", "pc_codec.ir")
        with open(path) as handle:
            lines = handle.read().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("global @data"))
        lines.insert(at + 1, lines[at])
        with pytest.raises(ParseError, match="duplicate global @data") as err:
            parse_module("\n".join(lines))
        assert err.value.line_no == at + 2

    @pytest.mark.parametrize("text, what, line_no", [
        ("module m\nglobal @g[1]\nglobal @g[2]\n", "duplicate global @g", 3),
        ("module m\nfunc f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n"
         "  ret\n}\n", "duplicate function f", 6),
        ("module m\nfunc f() {\nentry:\n  jmp entry\nentry:\n  ret\n}\n",
         "duplicate block label entry in f", 5),
        ("module m\nfunc f() {\nstack @s[1]\nstack @s[1]\nentry:\n  ret\n}\n",
         "duplicate stack object @s in f", 4),
    ], ids=["global", "function", "label", "stack"])
    def test_duplicates_are_located_parse_errors(self, text, what, line_no):
        with pytest.raises(ParseError, match=what) as err:
            parse_module(text)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("text, line_no", [
        ("module m\nglobal @g[2] = [1, x]\n", 2),
        ("module m\nfunc f() {\nentry:\n  set_recovery_ptr %r1\n  ret\n}\n",
         4),
    ], ids=["initializer", "encore-operands"])
    def test_malformed_values_are_located_parse_errors(self, text, line_no):
        with pytest.raises(ParseError) as err:
            parse_module(text)
        assert err.value.line_no == line_no
