import csv
import io
import json
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liminfdim import cli
from liminfdim import config as config_module
from liminfdim import report as report_module
from liminfdim.cli import MissingSeriesError, main, plot, run
from liminfdim.config import (ConfigError, ExperimentConfig, config_json, parse_config,
                              parse_rational)
from liminfdim.multiplicative import hyperbolic_cover
from liminfdim.numerics import DOWN, UP, DirectedReal
from liminfdim.report import (
    DECIMAL_MAX_BITS,
    cover_csv,
    cover_rects,
    dyadic_str,
    fraction_str,
    grid_str,
    int_json,
    render_json,
)
from liminfdim.sequences import PowerSpec, generate
from reference import wide_cover

POWER_CFG = """
# fourth-power family
sequence = power
q1 = 4
growth = 4
tau = 1
d = 1
depth = 6
tasks = analyze,dimension
seed = 0
"""

ENUM_CFG = """
sequence = explicit
terms = 3, 81
tau = 1
depth = 2
tasks = analyze,enumerate
"""

MULT_CFG = """
sequence = power
q1 = 4
growth = 4
tau = 1/2
d = 2
depth = 4
tasks = analyze,multiplicative
"""

TOUCH_CFG = """
sequence = power
q1 = 4
growth = 4
tau = 1/2
depth = 2
tasks = analyze,enumerate
"""


class TestParsing:
    def test_rationals(self):
        assert parse_rational("3/10") == F(3, 10)
        assert parse_rational("5") == 5
        assert parse_rational("3*2^-4") == F(3, 16)
        assert parse_rational("-1*2^3") == -8

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")

    @pytest.mark.parametrize("text", ["1/0", "0x1/0x0", "-3/-0"])
    def test_zero_denominator_rejected(self, text):
        # a ValueError like every other malformed input, not a ZeroDivisionError
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)

    def test_zero_denominator_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("sequence = power\ntau = 1/0\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "tau" in err

    def test_config_roundtrip(self):
        cfg = parse_config(POWER_CFG)
        assert cfg.sequence == "power" and cfg.depth == 6
        assert cfg.tasks == ("analyze", "dimension")
        assert cfg.theta == (F(0),)
        # every integer key reads the '0x...' form the report's config echo writes
        big = (1 << DECIMAL_MAX_BITS) + 1
        cfg = parse_config(f"sequence = explicit\nterms = 3, {int_json(big)}\nq1 = 0x4\n"
                           "d = 0X1\ndepth = 0x2\nprecision = 0x80\nseed = -0x10\n"
                           "holder_samples = +0xa\ngamma = 0x1/0x40\n")
        assert cfg.terms == (3, big) and int_json(big).startswith("0x")
        assert (cfg.q1, cfg.d, cfg.depth, cfg.precision) == (4, 1, 2, 128)
        assert (cfg.seed, cfg.holder_samples, cfg.gamma) == (-16, 10, F(1, 64))
        # integer keys past DECIMAL_MAX_BITS are echoed in hex and read back
        huge = replace(cfg, seed=-big, component_budget=big, node_budget=big << 1)
        for c in (cfg, huge):
            echo = "\n".join(f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}"
                             for key, v in config_json(c).items())
            assert parse_config(echo) == c
        assert [config_json(huge)[k][:3] for k in ("seed", "component_budget", "node_budget")] \
            == ["-0x", "0x1", "0x2"]

    def test_echo_keys_are_the_fields(self):
        # one typed table: every field is echoed, in field order, and every
        # field type has a reader and a writer
        names = [f.name for f in fields(ExperimentConfig)]
        assert list(config_json(parse_config(POWER_CFG))) == names
        assert config_module._READERS.keys() == config_module._WRITERS.keys()

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("sequence = power\nbogus = 1\n")
        assert exc.value.line == 2

    def test_tau_must_be_positive(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("sequence = power\ntau = 0\n")
        assert "tau" in str(exc.value)

    def test_theta_length_checked(self):
        with pytest.raises(ConfigError):
            parse_config("sequence = power\nd = 2\ntheta = 1/2\n")

    def test_precision_default_and_key(self):
        cfg = parse_config("sequence = power\n")
        assert cfg.precision == 128
        cfg2 = parse_config("sequence = power\nprecision = 32\n")
        assert cfg2.precision == 32  # explicit config wins
        cfg3 = ExperimentConfig(precision=None)
        cfg3.validate()
        assert cfg3.precision == 128


class TestRun:
    def test_dimension_report(self):
        cfg = parse_config(POWER_CFG)
        report, code = run(cfg)
        assert code == 0
        series = report["results"]["dimension"]["series"]
        assert len(series) == 6
        last = series[-1]
        assert 0 < last["upper"]["hi_float"] - 1 / 3 < 0.01
        assert abs(last["lower"]["lo_float"] - 1 / 3) < 0.0002
        assert report["results"]["analyze"]["regime"]["status"] == "pass"
        assert "timing" in report
        cover = report["results"]["dimension"]["cover_report"]
        assert cover["J"] == 6 and cover["N_min"] >= 1
        assert set(cover) >= {"J", "N_min", "N_max", "side_lo", "side_hi",
                              "dim_lo", "dim_hi"}

    def test_enumerate_report(self):
        cfg = parse_config(ENUM_CFG)
        report, code = run(cfg)
        assert code == 0
        levels = report["results"]["enumerate"]["levels"]
        assert levels[-1]["count"] == {"min": 57, "max": 57}
        assert 48 <= levels[-1]["count"]["min"] <= 60

    def test_budget_exhaustion_exit_code(self):
        cfg = parse_config(ENUM_CFG + "component_budget = 10\n")
        report, code = run(cfg)
        assert code == 1
        assert report["results"]["enumerate"]["aborted_at"] == 2
        assert any("budget" in w for w in report["warnings"])

    @pytest.mark.parametrize("theta, code, levels", [("68/97", 1, 0), ("0", 0, 2)])
    def test_touching_arcs_off_the_grid(self, theta, code, levels, tmp_path, capsys):
        # the level-1 radius 4**-(3/2) is exactly 1/(2*4): the true arcs touch,
        # and with an off-grid shift the outer arcs overlap by one grid unit
        cfg_path = tmp_path / "touch.cfg"
        cfg_path.write_text(TOUCH_CFG + f"theta = {theta}\n")
        assert main(["run", str(cfg_path), "--format", "csv", "--out", str(tmp_path)]) == code
        report = json.loads((tmp_path / "report.json").read_text())
        enum = report["results"]["enumerate"]
        assert len(enum["levels"]) == levels
        assert len((tmp_path / "levels.csv").read_text().splitlines()) == levels + 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert enum["aborted_at"] == 1
            assert "enumerate: level 1 could not be certified: outer arcs for q=4 overlap" in err
        else:
            assert enum["aborted_at"] is None
            assert enum["levels"][0]["count"] == {"min": 4, "max": 4}
            assert parse_rational(enum["levels"][0]["min_gap"]) == 0

    def test_canonical_reports_reproducible(self):
        cfg = parse_config(POWER_CFG)
        r1, _ = run(cfg, canonical=True)
        r2, _ = run(cfg, canonical=True)
        assert render_json(r1, True) == render_json(r2, True)
        assert "timing" not in r1

    def test_report_json_roundtrip(self):
        cfg = parse_config(POWER_CFG)
        report, _ = run(cfg, canonical=True)
        text = render_json(report, True)
        assert json.loads(text) == report


class TestHugeIntegers:
    """Terms past the interpreter's 4300-digit int-to-str limit (q_8 of the
    fourth-power family has 9865 digits) are written as hex strings."""

    DEEP_CFG = ("sequence = power\nq1 = 4\ngrowth = 4\ntau = 1\nd = 1\n"
                "depth = 8\ntasks = {tasks}\n")

    @pytest.mark.parametrize("tasks", ["analyze", "analyze,dimension"])
    def test_deep_terms_report(self, tasks, tmp_path):
        cfg_path = tmp_path / "deep.cfg"
        cfg_path.write_text(self.DEEP_CFG.format(tasks=tasks))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--format", "csv"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        terms = [int(s, 0) for s in report["results"]["analyze"]["terms"]]
        assert terms == list(generate(PowerSpec(4, F(4)), 8).terms)
        assert report["results"]["analyze"]["terms"][-1].startswith("0x")
        if "dimension" in tasks:
            cover = report["results"]["dimension"]["cover_report"]
            n_min, n_max = (int(str(cover[k]), 0) for k in ("N_min", "N_max"))
            assert 1 <= n_min <= n_max and n_max.bit_length() > DECIMAL_MAX_BITS

    HUGE = "0x" + "f" * 4000

    @pytest.mark.parametrize("text, key", [
        (f"tasks = analyze\nseed = {HUGE}\n", "seed"),
        (f"tasks = analyze\ncomponent_budget = {HUGE}\n", "component_budget"),
        ("sequence = explicit\nterms = 9, 657, 4316500\ntau = 1\ndepth = 3\n"
         f"tasks = cantor\nholder_samples = 2\nseed = {HUGE}\n", "seed"),
    ], ids=["seed", "component_budget", "cantor-seed"])
    def test_huge_config_integers(self, text, key, tmp_path):
        # every integer a user can set reaches the report through int_json
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"][key].startswith("0x")
        assert int(report["config"][key], 0) == int(self.HUGE, 16)
        if "cantor" in text:
            cert = report["results"]["cantor"]["certificate"]
            assert int(cert["seed"], 0) == int(self.HUGE, 16) and cert["n"] == 2

    def test_small_integers_stay_decimal(self):
        assert int_json(10 ** 4000) == 10 ** 4000
        assert int_json(1 << DECIMAL_MAX_BITS) == hex(1 << DECIMAL_MAX_BITS)
        assert int(int_json(-(1 << 20000)), 0) == -(1 << 20000)

    def test_long_parts_round_trip(self):
        big = (1 << 20000) + 12345
        for x in (F(big), F(-big), F(big, 3), F(-7, big), F(-big, big + 2), F(3, 10)):
            assert parse_rational(fraction_str(x)) == x
        for m in (big, -big, 3, -5):
            d = DirectedReal(m, -20011, DOWN if m > 0 else UP)
            assert parse_rational(dyadic_str(d)) == d.as_fraction()
        assert fraction_str(F(big, 3)).startswith("0x") and fraction_str(F(3, 10)) == "3/10"
        assert dyadic_str(DirectedReal(-big, 7)).startswith("-0x")
        assert parse_rational("12/007") == F(12, 7)   # decimal parts parse as before

    def test_certificate_ratio_past_the_double_range(self, tmp_path):
        # the worst ball's ratio here is about 2**1200: its float is null and
        # the exact string keeps the value
        cfg_path = tmp_path / "cert.cfg"
        cfg_path.write_text("sequence = power\nq1 = 16\ngrowth = 4\ntau = 1\ndepth = 5\n"
                            "tasks = analyze,cantor\nholder_s = 19/10\nholder_samples = 50\n"
                            "seed = 1\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        cert = json.loads((out_dir / "report.json").read_text())["results"]["cantor"]["certificate"]
        assert cert["max_ratio_float"] is None
        assert parse_rational(cert["max_ratio"]) > sys.float_info.max

    def test_high_precision_report(self, tmp_path):
        # 15000-bit enclosures have mantissas past the 4300-digit limit
        cfg_path = tmp_path / "hp.cfg"
        cfg_path.write_text("sequence = explicit\nterms = 3, 50\ndepth = 2\n"
                            "precision = 15000\ntasks = analyze\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--format", "csv"]) == 0
        stats = json.loads((out_dir / "report.json").read_text())["results"]["analyze"]
        encs = stats["h_list"] + stats["alpha_list"]
        assert encs and all(e["lo"].startswith("0x") for e in encs)
        for e in encs:
            lo, hi = parse_rational(e["lo"]), parse_rational(e["hi"])
            assert 0 < hi - lo < F(1, 1 << 14990)
            assert dyadic_str(DirectedReal.from_fraction(lo, None, DOWN)) == e["lo"]
            assert dyadic_str(DirectedReal.from_fraction(hi, None, UP)) == e["hi"]


class TestCoverReport:
    @pytest.mark.parametrize("K, rects", [
        (0, [["0", "0", "1"]]),
        # the lone column square is clamped to 1 - side = 0: the unit square, twice
        (1, [["0", "0", "1"], ["0", "0", "1"], ["0", "0", "1/2"]]),
        (2, [["1/2", "0", "1/2"], ["0", "1/2", "1/2"], ["0", "0", "1/2"]]),
        (3, [["1/2", "0", "1/4"], ["0", "1/2", "1/4"], ["3/4", "0", "1/4"],
             ["0", "3/4", "1/4"], ["1/4", "0", "1/2"], ["0", "1/4", "1/2"],
             ["0", "0", "1/4"]]),
    ])
    def test_small_covers_by_hand(self, K, rects):
        report, code = run(parse_config(MULT_CFG + f"gamma = 1*2^-{K}\n"))
        cover = report["results"]["multiplicative"]["cover"]
        assert code == 0 and cover["rects"] == rects and cover["squares"] == len(rects)

    def test_rects_parse_back_to_the_grid(self):
        for K in range(13):
            report, _ = run(parse_config(MULT_CFG + f"gamma = 1*2^-{K}\n"))
            rects = report["results"]["multiplicative"]["cover"]["rects"]
            squares = hyperbolic_cover(F(1, 1 << K), F(8, 5))[0].squares
            assert rects == [[grid_str(v, K) for v in sq] for sq in squares]
            assert [[parse_rational(v) for v in r] for r in rects] == \
                [[F(v, 1 << K) for v in sq] for sq in squares]

    def test_grid_str_calls_per_column(self, monkeypatch):
        # gamma = 2^-16: 43,691 squares in 8 columns and the corner; the
        # columns' strings are written in closed form, not value by value
        calls = []

        def counted(n, big_k):
            calls.append(n)
            return grid_str(n, big_k)

        monkeypatch.setattr(report_module, "grid_str", counted)
        report, _ = run(parse_config(MULT_CFG + "gamma = 1*2^-16\n"))
        rects = report["results"]["multiplicative"]["cover"]["rects"]
        assert len(rects) == 43691 and len(calls) <= 8 + 1

    @pytest.mark.parametrize("K", range(19))
    def test_cover_rects_are_grid_strs(self, K):
        cover = hyperbolic_cover(F(1, 1 << K), F(8, 5))[0]
        assert cover_rects(cover) == [[grid_str(v, K) for v in sq] for sq in cover.squares]

    @pytest.mark.parametrize("K", [*range(19), DECIMAL_MAX_BITS, DECIMAL_MAX_BITS + 1,
                                   DECIMAL_MAX_BITS + 40])
    def test_cover_csv_is_csv_writer(self, K):
        # the csv module's rendering, which cover_csv wrote before it wrote the
        # rows column by column; past K = 18 the cover is built by hand
        cover = hyperbolic_cover(F(1, 1 << K), F(8, 5))[0] if K < 19 else wide_cover(K)
        rects = cover_rects(cover)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y", "side"])
        writer.writerows(rects)
        assert cover_csv(rects) == buf.getvalue()

    @pytest.mark.parametrize("big_k", [DECIMAL_MAX_BITS, DECIMAL_MAX_BITS + 1,
                                       DECIMAL_MAX_BITS + 40])
    def test_cover_rects_past_the_decimal_range(self, big_k):
        # a hand-built cover, far too large to build by hyperbolic_cover: past
        # DECIMAL_MAX_BITS its values are hex, as grid_str writes them
        cover = wide_cover(big_k)
        rects = cover_rects(cover)
        assert rects == [[grid_str(v, big_k) for v in sq] for sq in cover.squares]
        assert any("0x" in v for row in rects for v in row) == (big_k > DECIMAL_MAX_BITS)

    @settings(max_examples=200, deadline=None)
    @given(n=st.one_of(st.integers(0, 1 << 70), st.integers(0, 3).map(lambda e: e << 14300)),
           big_k=st.integers(0, 14400))
    def test_grid_str_is_fraction_str(self, n, big_k):
        assert grid_str(n, big_k) == fraction_str(F(n, 1 << big_k))

    @pytest.mark.parametrize("extra, code", [
        ("gamma = 1*2^-6\ncomponent_budget = 43\n", 0),
        ("gamma = 1*2^-6\ncomponent_budget = 42\n", 1),
        ("gamma = 1*2^-10\ncomponent_budget = 100\n", 1),
        # 2**38 squares in the first column alone: refused before anything is built
        ("gamma = 1*2^-40\n", 1),
        # counts past the decimal range: the warning writes them in hex
        ("gamma = 1*2^-14400\n", 1),
        ("gamma = 1*2^-1000000\n", 1),
        (f"gamma = 1*2^-16000\ncomponent_budget = {hex(1 << 15000)}\n", 1),
    ], ids=["K6-at-budget", "K6-over", "K10-over", "K40-default-budget", "K14400-hex",
            "K1000000-hex", "K16000-hex-budget"])
    def test_cover_over_component_budget(self, extra, code, tmp_path, monkeypatch, capsys):
        if code:
            def refuse(*args):
                raise AssertionError("a cover over budget must not be built")
            monkeypatch.setattr(cli, "hyperbolic_cover", refuse)
        cfg_path = tmp_path / "mult.cfg"
        cfg_path.write_text(MULT_CFG + extra)
        assert main(["run", str(cfg_path), "--format", "csv", "--out", str(tmp_path)]) == code
        mult = json.loads((tmp_path / "report.json").read_text())["results"]["multiplicative"]
        assert mult["upper"]["exact_value"] == "5/3"
        err = capsys.readouterr().err
        assert (tmp_path / "cover.csv").exists() == (code == 0)
        if code:
            assert mult["cover"] is None and "over the component budget" in err
            assert main(["plot", str(tmp_path / "report.json"), "--kind", "cover_overlay",
                         "--out", str(tmp_path / "cover.svg")]) == 2
            assert "Traceback" not in capsys.readouterr().err
        else:
            assert mult["cover"]["squares"] == 43 and err == ""


class TestPlot:
    def test_bracket_plot(self, tmp_path):
        cfg = parse_config(POWER_CFG)
        report, _ = run(cfg)
        out = tmp_path / "bracket.svg"
        plot(report, "bracket_vs_J", str(out))
        text = out.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_count_plot(self, tmp_path):
        report, _ = run(parse_config(ENUM_CFG))
        out = tmp_path / "count.svg"
        plot(report, "count_vs_scale", str(out))
        assert out.read_text().startswith("<svg ")

    def test_count_plot_reads_hex_counts(self, tmp_path):
        # a count past DECIMAL_MAX_BITS is written as a '0x...' string
        count = int_json(1 << 20000)
        level = {"level": 1, "q": 256, "count": {"min": count, "max": count},
                 "max_len": "1/32768", "max_len_float": 2.0 ** -15}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"results": {"enumerate": {"levels": [level]}}}))
        out = tmp_path / "count.svg"
        assert main(["plot", str(path), "--kind", "count_vs_scale", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg ")

    @pytest.mark.parametrize("cfg, points", [
        # the longest component of level 1 is about 1000**-201: max_len_float 0.0
        ("sequence = explicit\nterms = 1000\ntau = 200\ndepth = 1\n", 1),
        # level 3 is empty, so it has no length to place
        ("sequence = explicit\nterms = 2, 3, 5\ntau = 3\ntheta = 1/4\ndepth = 3\n", 2),
    ], ids=["below-the-double-range", "empty-level"])
    def test_count_plot_reads_exact_lengths(self, tmp_path, capsys, cfg, points):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(cfg + "tasks = enumerate\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        levels = report["results"]["enumerate"]["levels"]
        assert any(level["max_len_float"] == 0.0 for level in levels)
        out = tmp_path / "count.svg"
        assert main(["plot", str(tmp_path / "out" / "report.json"), "--kind", "count_vs_scale",
                     "--out", str(out)]) == 0
        assert "plot error" not in capsys.readouterr().err
        assert out.read_text().count("<circle ") == points

    def test_cover_overlay_square_count(self, tmp_path):
        cfg = parse_config("sequence = power\ntasks = multiplicative\ngamma = 1/64\n")
        report, _ = run(cfg)
        out = tmp_path / "cover.svg"
        plot(report, "cover_overlay", str(out))
        text = out.read_text()
        # one <rect> per cover square, plus canvas and frame
        n_squares = report["results"]["multiplicative"]["cover"]["squares"]
        assert text.count("<rect ") == n_squares + 2

    @pytest.mark.parametrize("report, kind", [
        ([], "bracket_vs_J"),
        ({"results": {"dimension": {"series": [{"depth": 1, "upper": None, "lower": None}]}}},
         "bracket_vs_J"),
        ({"results": []}, "cover_overlay"),
        ({"results": {"multiplicative": {"cover": {"gamma": "1/0", "rects": []}}}},
         "cover_overlay"),
        ({"results": {"multiplicative": {"cover": {"gamma": "1/64",
                                                   "rects": [["1*2^2000", "0", "1"]]}}}},
         "cover_overlay"),
        ({"results": {"multiplicative": {"cover": {"gamma": "1*2^2000", "rects": []}}}},
         "cover_overlay"),
    ], ids=["not-an-object", "null-upper-estimate", "results-not-an-object", "zero-denominator",
            "rect-past-the-double-range", "gamma-past-the-double-range"])
    def test_report_of_the_wrong_shape(self, report, kind, tmp_path, capsys):
        # exit 2 with one line, not a traceback with the "stopped early" code 1
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["plot", str(path), "--kind", kind, "--out", str(tmp_path / "p.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("plot error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("depths", [("1e400", "2"), ("1e300", "1e300"),
                                        ("-1.7e308", "1.7e308")],
                             ids=["infinite", "span-lost-to-rounding", "span-past-the-range"])
    def test_depth_out_of_the_double_range(self, depths, tmp_path, capsys):
        # no nan coordinates in an SVG: exit 2 with one line, and no file
        rows = ", ".join(f'{{"depth": {d}, "upper": {{"hi_float": 0.5}}, "lower": null}}'
                         for d in depths)
        path = tmp_path / "report.json"
        path.write_text(f'{{"results": {{"dimension": {{"series": [{rows}]}}}}}}')
        out = tmp_path / "p.svg"
        assert main(["plot", str(path), "--kind", "bracket_vs_J", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("plot error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_missing_series(self):
        report, _ = run(parse_config(ENUM_CFG))
        with pytest.raises(MissingSeriesError) as exc:
            plot(report, "bracket_vs_J", "/tmp/never.svg")
        assert "dimension" in str(exc.value)


class TestEndToEnd:
    def test_cli_process_run_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(POWER_CFG)
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "liminfdim", "run", str(cfg_path),
             "--out", str(out_dir), "--canonical"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["sequence"] == "power"

    def test_cli_rejects_bad_config(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("sequence = power\ntau = 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "liminfdim", "run", str(cfg_path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "tau" in proc.stderr

    @pytest.mark.parametrize("text, message", [
        # too few explicit terms for the default depth 4: rejected with the config
        ("sequence = explicit\nterms = 3, 50\n", "key 'terms': depth 4 needs 4"),
        # the family cannot be generated: raised while the run generates it
        ("sequence = contractive\nq1 = 3\ntau = 1/2\n", "term 2: contractive step"),
    ], ids=["explicit-short", "contractive-stalls"])
    def test_generation_errors_are_config_errors(self, text, message, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra, key", [
        ("tasks = analyze,cantor\nholder_s = 5\n", "holder_s"),
        ("tasks = analyze,cantor\nholder_samples = 0\n", "holder_samples"),
        ("tasks = analyze,multiplicative\nmult_s = 3\n", "mult_s"),
        ("tasks = analyze,multiplicative\ngamma = 1/3\n", "gamma"),
        ("growth = 1\n", "growth"),
        ("sequence = alternating\neta = 2\n", "eta"),
        ("sequence = explicit\nterms = 5, 3, 9, 20\n", "terms"),
        ("q1 = -3\n", "q1"),
        ("precision = 4\n", "precision"),
    ], ids=["holder_s", "holder_samples", "mult_s", "gamma", "growth", "eta", "terms", "q1",
            "precision"])
    def test_invalid_values_rejected_at_load(self, extra, key, tmp_path, capsys):
        # each value is checked by the rule of the code that reads it, before any task runs
        cfg_path = tmp_path / "probe.cfg"
        cfg_path.write_text("sequence = power\nq1 = 4\ngrowth = 4\ntau = 1\ndepth = 3\n"
                            + extra)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        named = re.match(r"config error: key '([^']*)'", err)
        assert key in (named.group(1).split(", ") if named else err)
        assert not (out_dir / "report.json").exists()

    def test_levels_csv_reads_hex_gaps(self, tmp_path):
        # past DECIMAL_MAX_BITS the report writes min_gap in hex; the CSV reads it back
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(ENUM_CFG + "precision = 15000\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--format", "csv", "--out", str(out_dir)]) == 0
        levels = json.loads((out_dir / "report.json").read_text())["results"]["enumerate"]["levels"]
        rows = (out_dir / "levels.csv").read_text().splitlines()[1:]
        assert any(st["min_gap"].startswith("0x") for st in levels)
        assert [float(row.split(",")[4]) for row in rows] == \
            [float(parse_rational(st["min_gap"])) for st in levels]

    @pytest.mark.parametrize("out, error", [
        ("taken", "File exists"),
        ("taken/sub", "Not a directory"),
        ("dir", "Is a directory"),
    ], ids=["out-is-a-file", "out-under-a-file", "report-is-a-directory"])
    def test_output_errors(self, out, error, tmp_path, capsys, monkeypatch):
        # the output directory is made before any task runs; it or a report
        # file that cannot be written exits 2 with one line, not a traceback
        if out.startswith("taken"):
            def refuse(*args, **kwargs):
                raise AssertionError("no task may run without an output directory")
            monkeypatch.setattr(cli, "run", refuse)
        (tmp_path / "taken").write_text("")
        (tmp_path / "dir" / "report.json").mkdir(parents=True)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MULT_CFG)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and error in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # an unexpected exception in a task is a defect: exit 3 with one line,
        # not a traceback with the "stopped early" code 1
        def fail(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "prefix_intersection", fail)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(ENUM_CFG)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_depth_override_checked_against_terms(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(ENUM_CFG)
        assert main(["run", str(cfg_path), "--depth", "3", "--out", str(tmp_path)]) == 2
        assert "depth 3 needs 3 explicit terms, got 2" in capsys.readouterr().err

    def test_cli_task_override_and_csv(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(ENUM_CFG)
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "liminfdim", "run", str(cfg_path),
             "--task", "analyze,enumerate", "--format", "csv",
             "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = (out_dir / "levels.csv").read_text().splitlines()
        assert lines[0].startswith("level,count_min,count_max")
        assert len(lines) == 3

    def test_parser_reused_across_calls(self, tmp_path):
        # one parser serves every call in a process: an override given to
        # one call leaves the next call's config as its file says
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(ENUM_CFG)
        assert main(["run", str(cfg_path), "--task", "analyze",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in "ab"]
        assert [r["config"]["tasks"] for r in reports] == [["analyze"], ["analyze", "enumerate"]]
        assert [sorted(r["results"]) for r in reports] == [["analyze"], ["analyze", "enumerate"]]

    def test_repeated_task_appends_within_its_call(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(POWER_CFG)
        for out in "ab":
            assert main(["run", str(cfg_path), "--task", "analyze", "--task", "enumerate",
                         "--depth", "2", "--out", str(tmp_path / out)]) == 0
            report = json.loads((tmp_path / out / "report.json").read_text())
            assert report["config"]["tasks"] == ["analyze", "enumerate"]

    def test_missing_config_exits_2_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["run"])
            assert exc.value.code == 2
            assert "the following arguments are required: config" in capsys.readouterr().err
