"""Self-tests of the benchmark: each workload's output check catches a
planted fault, seeds fix the inputs, and tracing restores the library.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import io
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import piercelib  # noqa: E402
import piercelib.cli  # noqa: E402
from run import run_pass  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    DimensionReport,
    ExactArith,
    LawSampling,
    check_document,
    dim_argv,
    load_reference,
    pierce_digits,
    word_value,
)

SMALL_MIX = {"rational64": 40, "rational256": 8, "word64": 20, "word256": 4, "window": 20}


class Patched:
    """The piercelib namespace with some names replaced."""

    def __init__(self, **overrides):
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(piercelib, name)


def _run(workload, p=0):
    workload.prepare()
    latencies, _, failures = run_pass(workload.ops(p))
    return latencies, failures


def test_oracles_agree_with_definitions():
    assert pierce_digits(7, 9) == (1, 4, 9)
    assert word_value((1, 4, 9)) == piercelib.evaluate((1, 4, 9))


def test_exact_arith_catches_a_flipped_digit():
    _, failures = _run(ExactArith(piercelib, 1, 1, mix=SMALL_MIX))
    assert failures == []

    def flipped_expand(x, cap=None):
        result = piercelib.expand(x, cap)
        word = list(result.word)
        word[len(word) // 2] += 1
        return dataclasses.replace(result, word=tuple(word))

    _, failures = _run(ExactArith(Patched(expand=flipped_expand), 1, 1, mix=SMALL_MIX))
    rational_ops = SMALL_MIX["rational64"] + SMALL_MIX["rational256"]
    assert len(failures) == rational_ops
    assert all(f.startswith("rational") for f in failures)


class FirstDigitOffByOne(piercelib.DigitSampler):
    """A sampler whose first digit is one too large; later digits follow the
    kernel from there, so every word stays positive and increasing."""

    def next_digit(self):
        digit = super().next_digit()
        if len(self._word) == 1:
            self._word[0] = digit = digit + 1
        return digit


def test_law_sampling_ks_rejects_an_off_by_one_first_digit():
    sizes = {"shallow": (500, 600), "deep": (300, 1)}
    _, failures = _run(LawSampling(piercelib, 1, 1, **sizes))
    assert failures == []
    _, failures = _run(LawSampling(Patched(DigitSampler=FirstDigitOffByOne), 1, 1, **sizes))
    assert len(failures) == 1
    assert failures[0].startswith("law: first-digit KS distance")


def _cheap_document():
    doc = next(d for d in load_reference()["slots"][0]["docs"] if d["spec"]["family"] == "E_phi")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = piercelib.cli.main(dim_argv(doc))
    return buf.getvalue(), code, doc


def _altered(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dimension_report_catches_an_altered_exact_field():
    text, code, ref = _cheap_document()
    assert check_document(text, code, ref) is None

    def shift_level(doc):
        doc["data"][3]["n"] += 1

    assert check_document(_altered(text, shift_level), code, ref) == (
        "exact fields differ from the reference"
    )


def test_dimension_report_float_tolerance():
    text, code, ref = _cheap_document()

    def scale_ratio(factor):
        def change(doc):
            row = doc["data"][-1]
            row["ratio"] = repr(float(row["ratio"]) * factor)
        return change

    assert check_document(_altered(text, scale_ratio(1 + 1e-15)), code, ref) is None
    assert "float field" in check_document(_altered(text, scale_ratio(1 + 1e-9)), code, ref)


def test_seed_fixes_the_inputs():
    def inputs(seed):
        w = ExactArith(piercelib, seed, 1, mix=SMALL_MIX)
        w.prepare()
        return w.inputs

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)

    def slots(seed):
        w = DimensionReport(piercelib, seed, 3)
        w.prepare()
        return [(s[0]["oscillating"]["k"], s[1]) for s in w.slots]

    assert slots(1) == slots(1)
    assert slots(1) != slots(4242)


def test_tracer_records_layers_and_restores_the_library():
    original = piercelib.expand
    tracer = Tracer()
    tracer.install()
    try:
        assert piercelib.expand is not original
        piercelib.fundamental_interval((2, 5))  # calls expansion.evaluate inside
    finally:
        tracer.uninstall()
    assert piercelib.expand is original
    assert piercelib.intervals.evaluate is piercelib.evaluate
    names = [s[0] for s in tracer.spans]
    assert names == ["intervals.fundamental", "expansion.evaluate", "expansion.evaluate"]
    (outer, start, end, parent), *inner = tracer.spans
    assert parent == -1 and all(s[3] == 0 for s in inner)
    self_time = tracer.self_times()
    assert abs(
        self_time["intervals.fundamental"] + self_time["expansion.evaluate"] - (end - start)
    ) < 1e-9
    metrics = layer_metrics(tracer, 1)
    assert metrics["intervals.calls"] == 1
    assert metrics["expansion.evaluate_s"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
