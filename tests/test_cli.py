"""Command-line interface tests: outputs, exit codes, determinism."""

import dataclasses
import os

import numpy as np
import pytest

from nanosim.cli import build_parser, main

from conftest import deck_path


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(path):
    lines = [l for l in _read(path).splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, data


class TestOp:
    def test_divider_prints_voltage(self, capsys):
        code = main(["op", deck_path("divider.ckt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "v(2) = 2.5" in out

    def test_missing_file(self, capsys):
        code = main(["op", "no_such_deck.ckt"])
        err = capsys.readouterr().err
        assert code == 1
        assert "no_such_deck.ckt" in err

    def test_compare_nr_prints_speedup(self, capsys):
        code = main(["op", deck_path("rtd_divider_bistable.ckt"), "--compare-nr"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup=" in out

    def test_settle_failure_exit_code(self, capsys, monkeypatch):
        # a settle that cannot finish: 2 iterations end it inside the ramp
        monkeypatch.setattr("nanosim.swec._SETTLE_ITERS", 2)
        code = main(["op", deck_path("rtd_divider_bistable.ckt")])
        assert code == 2
        assert capsys.readouterr().err == "warning: operating point failed to settle\n"

    def test_steep_divider_settles(self, tmp_path, capsys):
        deck = tmp_path / "steep.ckt"
        deck.write_text(
            "V1 1 0 DC 25\nR1 1 2 200\nXRTD1 2 0 M1\n"
            ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
            ".op\n.end\n")
        code = main(["op", str(deck)])
        captured = capsys.readouterr()
        assert code == 0
        assert "v(2) = 21.1045" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("cap", ["1p", "1n", "1u", "1"])
    def test_capacitor_leaves_op_unchanged(self, tmp_path, capsys, cap):
        # capacitors are open in the DC system, whatever their size
        outs = []
        for extra in ("", f"C1 2 0 {cap}\n"):
            deck = tmp_path / "cap.ckt"
            deck.write_text(
                "V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n" + extra +
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".op\n.end\n")
            assert main(["op", str(deck)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0] == "v(1) = 1\nv(2) = 0.11163\n"

    def test_floating_node_exit_code(self, tmp_path, capsys):
        deck = tmp_path / "float.ckt"
        deck.write_text("V1 1 0 DC 1\nC1 1 2 1p\nC2 2 0 1p\n.op\n.end\n")
        code = main(["op", str(deck)])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_parallel_sources_exit_code(self, tmp_path, capsys):
        deck = tmp_path / "vv.ckt"
        # a node pinned twice, with either sign, and a loop of sources
        for text in ("V1 1 0 DC 1\nV2 1 0 DC 2\nR1 1 0 1k\n",
                     "V1 1 0 DC 1\nV2 0 1 DC 2\nR1 1 2 1k\nR2 2 0 1k\n",
                     "V1 1 0 DC 1\nV2 2 0 DC 2\nV3 1 2 DC 1\nR1 1 0 1k\n"):
            deck.write_text(text + ".op\n.end\n")
            code = main(["op", str(deck)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical failure:") and "singular" in err


class TestDc:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["dc", deck_path("rtd_divider.ckt"), "--points", "12",
                     "--out", str(out)])
        assert code == 0
        header, data = _csv_rows(str(out))
        assert header[0] == "bias"
        assert "i(XRTD1)" in header
        assert data.shape[0] == 12

    def test_linear_noise_deck_exit_code(self, tmp_path, capsys):
        # the deterministic engine refuses noise sources in a sweep as in op
        deck = tmp_path / "noisy.ckt"
        deck.write_text("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k\nC1 2 0 1p\n"
                        "N1 2 0 1e-9\n.end\n")
        for args in (["op"], ["dc", "--source", "V1", "--from", "0", "--to", "1",
                              "--points", "3", "--out", str(tmp_path / "n.csv")]):
            code = main([args[0], str(deck)] + args[1:])
            assert code == 2
            assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("args", [
        ["op", deck_path("rtd_divider_bistable.ckt")],
        ["dc", deck_path("rtd_divider.ckt"), "--points", "12"],
    ])
    def test_compare_nr_bills_the_run_it_made(self, args, tmp_path, capsys, monkeypatch):
        # only the Newton side runs again: the flops the comparison prints
        # for the conductance-stepping side are the ones the analysis billed
        import nanosim.nr as nrmod

        def rerun(*a, **k):
            raise AssertionError("the comparison ran the analysis again")
        monkeypatch.setattr(nrmod, "dc_sweep", rerun)
        monkeypatch.setattr(nrmod, "operating_point", rerun)
        code = main(args + ["--compare-nr"]
                    + (["--out", str(tmp_path / "s.csv")] if args[0] == "dc" else []))
        assert code == 0
        assert "speedup=" in capsys.readouterr().out

    def test_points_validation(self, capsys):
        code = main(["dc", deck_path("rtd_divider.ckt"), "--points", "1"])
        assert code == 1

    def test_points_parse_as_on_the_card(self, tmp_path, capsys):
        deck = tmp_path / "r.ckt"
        deck.write_text("V1 1 0 DC 0\nR1 1 2 1k\nR2 2 0 1k\n.dc V1 0 8 1k\n.end\n")
        for flag in ([], ["--points", "1k"], ["--points", "1000.0"]):
            out = tmp_path / "r.csv"
            assert main(["dc", str(deck), "--out", str(out)] + flag) == 0
            assert capsys.readouterr().out == f"wrote {out} (1000 points)\n"
        assert main(["dc", str(deck), "--points", "2.5"]) == 1
        assert "argument --points: '2.5' must be an integer" in capsys.readouterr().err

    def test_resistor_sweep_constant_slope(self, tmp_path, capsys):
        deck = tmp_path / "r.ckt"
        deck.write_text("V1 1 0 DC 0\nR1 1 2 1k\nR2 2 0 1k\n.dc V1 0 8 9\n.end\n")
        out = tmp_path / "r.csv"
        code = main(["dc", str(deck), "--out", str(out)])
        assert code == 0
        header, data = _csv_rows(str(out))
        v2 = data[:, header.index("v(2)")]
        i = (data[:, 0] - v2) / 1000.0
        slopes = np.diff(i) / np.diff(data[:, 0])
        assert np.allclose(slopes, slopes[0], rtol=1e-9)

    def test_plot_script(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["dc", deck_path("nanowire_divider.ckt"), "--points", "8",
                     "--out", str(out), "--plot"])
        assert code == 0
        assert os.path.exists(str(out).replace(".csv", ".gp"))
        assert "plot" in _read(str(out).replace(".csv", ".gp"))


class TestTran:
    def test_rc_final_value(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        code = main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(out)])
        assert code == 0
        header, data = _csv_rows(str(out))
        v_out = data[:, header.index("v(out)")]
        assert abs(v_out[-1] - 1.0) <= 0.01

    def test_eps_zero_rejected(self, capsys):
        code = main(["tran", deck_path("rc_lowpass.ckt"), "--eps", "0"])
        assert code == 1

    def test_resample(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        code = main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(out),
                     "--resample", "41"])
        assert code == 0
        _, data = _csv_rows(str(out))
        assert data.shape[0] == 41
        assert np.allclose(np.diff(data[:, 0]), data[1, 0] - data[0, 0])

    def test_resample_parses_as_a_count(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        argv = ["tran", deck_path("rc_lowpass.ckt"), "--out", str(out), "--resample"]
        assert main(argv + ["1k"]) == 0
        assert _csv_rows(str(out))[1].shape[0] == 1000
        out.unlink()
        assert main(argv + ["2.5"]) == 1
        assert "argument --resample: '2.5' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(a)]) == 0
        assert main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(b)]) == 0
        assert _read(str(a)) == _read(str(b))

    def test_stats_line(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        argv = ["tran", deck_path("rc_lowpass.ckt"), "--out", str(out)]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(argv + ["--stats"]) == 0
        stats = capsys.readouterr()
        assert stats.out == plain.out
        (line,) = stats.err.splitlines()
        fields = dict(kv.split("=") for kv in line.removeprefix("stats: ").split())
        counts = {k: int(v) for k, v in fields.items()}
        assert counts["solves"] == counts["steps"] + counts["rejected"]
        assert sum(counts[k] for k in ("lte", "lag", "growth", "h_max", "breakpoint",
                                       "first")) == counts["steps"]
        assert len(counts) == 10 and counts["flops"] > 0

    def test_hmin_warning_exit_code(self, tmp_path, capsys, monkeypatch):
        import nanosim.cli as climod
        real = climod.transient

        def warned(net, t_stop, eps=0.01):
            series = real(net, t_stop, eps)
            series.hmin_warnings = 2
            return series

        monkeypatch.setattr(climod, "transient", warned)
        out = tmp_path / "warned.csv"
        code = main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(out)])
        assert code == 3
        assert os.path.exists(out)     # results are still written


@pytest.mark.parametrize("argv", [
    ["tran", "rc_lowpass.ckt", "--tstop", "abc"],
    ["tran", "rc_lowpass.ckt", "--eps", "1x"],
    ["dc", "rtd_divider.ckt", "--from", "abc"],
    ["dc", "rtd_divider.ckt", "--to", "1x"],
    ["stoch", "ou_step.ckt", "--dt", "1x"],
    ["stoch", "ou_step.ckt", "--window", "1u", "abc"],
    ["tran", "rc_lowpass.ckt", "--tstop", "-1"],
    ["tran", "rc_lowpass.ckt", "--resample", "0"],
], ids=["tstop", "eps", "from", "to", "dt", "window", "tstop-negative",
        "resample-zero"])
def test_bad_value_is_one_line_input_error(argv, tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main([argv[0], deck_path(argv[1])] + argv[2:] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert "error:" in err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["dc", "nanowire_divider.ckt", "--points", "4"],
    ["tran", "rc_lowpass.ckt"],
], ids=["dc", "tran"])
class TestPlot:
    def test_script_beside_intact_data(self, argv, tmp_path, capsys):
        cmd = [argv[0], deck_path(argv[1])] + argv[2:]
        plain, out = tmp_path / "plain.txt", tmp_path / "data.txt"
        assert main(cmd + ["--out", str(plain)]) == 0
        assert main(cmd + ["--out", str(out), "--plot"]) == 0
        assert out.read_bytes() == plain.read_bytes()
        assert f"'{out}' using 1:2" in _read(str(tmp_path / "data.gp"))

    def test_script_may_not_replace_data(self, argv, tmp_path, capsys):
        out = tmp_path / "data.gp"
        code = main([argv[0], deck_path(argv[1])] + argv[2:]
                    + ["--out", str(out), "--plot"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["op", "rtd_divider_bistable.ckt"],
    ["dc", "nanowire_divider.ckt", "--points", "4"],
    ["tran", "rc_lowpass.ckt"],
    ["stoch", "ou_step.ckt", "--paths", "8"],
])
def test_report_holds_the_benchmark_counters(argv, tmp_path, capsys):
    out = [] if argv[0] == "op" else ["--out", str(tmp_path / "o.csv")]
    args = build_parser().parse_args([argv[0], deck_path(argv[1])] + argv[2:] + out)
    report = args.func(args)
    fields = [f.name for f in dataclasses.fields(report)]
    assert fields == ["steps", "rejections", "flops", "exit_code"]
    assert all(type(getattr(report, f)) is int for f in fields)


class TestStoch:
    def test_zero_intensity_var_is_zero(self, tmp_path, capsys):
        deck = tmp_path / "quiet.ckt"
        deck.write_text("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\nN1 out 0 0\n"
                        ".stoch 1e-6 1e-8 4\n.end\n")
        out = tmp_path / "quiet.csv"
        code = main(["stoch", str(deck), "--out", str(out)])
        assert code == 0
        header, data = _csv_rows(str(out))
        var_cols = [i for i, h in enumerate(header) if h.startswith("var(")]
        assert np.all(data[:, var_cols] == 0.0)

    def test_seed_reproducibility(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["stoch", deck_path("ou_step.ckt"), "--paths", "300", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _read(str(a)) == _read(str(b))

    def test_quantiles_match_per_level_reference(self, tmp_path, capsys, monkeypatch):
        # the engine takes every quantile level in one np.quantile call; the
        # reference takes one call per level, as the engine once did
        args = ["stoch", deck_path("ou_step.ckt"), "--paths", "60", "--seed", "3",
                "--window", "1u", "2u"]
        assert main(args + ["--out", str(tmp_path / "one.csv")]) == 0
        one_call = np.quantile
        monkeypatch.setattr(np, "quantile", lambda a, q, axis, **kwargs: np.stack(
            [one_call(a, level, axis=axis, **kwargs) for level in q]))
        assert main(args + ["--out", str(tmp_path / "ref.csv")]) == 0
        with open(tmp_path / "one.csv", "rb") as a, open(tmp_path / "ref.csv", "rb") as b:
            assert a.read() == b.read()

    def test_runaway_device_exit_code(self, tmp_path, capsys):
        # dt = 10 ns is twice the 5 ns RC time constant: the explicit drift
        # is unstable and the state overflows
        deck = tmp_path / "runaway.ckt"
        deck.write_text(
            "V1 1 0 DC 12\nR1 1 2 1k\nXRTD1 2 0 M1\nC1 2 0 5p\nN1 2 0 1e-7\n"
            ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
            ".stoch 1e-6 1e-8 4 seed=1\n.end\n")
        code = main(["stoch", str(deck), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        # the step-size warning once, then the failure; no numpy warning
        assert capsys.readouterr().err.splitlines() == [
            "warning: dt=1e-08 is not small vs fastest time constant 5e-09; "
            "the explicit drift may be unstable",
            "numerical failure: stochastic state diverged: dt=1e-08 is too large "
            "for the explicit drift (fastest time constant 5e-09)"]

    def test_coupled_capacitors_warn_with_fastest_mode(self, tmp_path, capsys):
        # the fastest mode of C^-1 G (about 5 ps), not a diagonal ratio
        # (1 ns), sets the step-size warning ahead of the divergence
        deck = tmp_path / "coupled.ckt"
        deck.write_text("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 0.01p\nC2 b c 1p\nR2 c 0 1k\n"
                        "N1 b 0 1e-9\n.stoch 50n 0.1n 8\n.end\n")
        code = main(["stoch", str(deck), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: dt=1e-10 is not small vs fastest time constant ")
        tau = float(warning.split("time constant ")[1].split(";")[0])
        assert 4.9e-12 < tau < 5.1e-12
        assert failure.startswith("numerical failure: stochastic state diverged: dt=1e-10")

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # no ensemble is refused up front; running out of memory is one
        # line and exit 2, never a traceback
        import nanosim.cli as climod
        out = tmp_path / "oom.csv"
        for raised, shown in ((MemoryError("Unable to allocate 1.00 TiB"),
                               "Unable to allocate 1.00 TiB"),
                              (MemoryError(), "out of memory")):
            def exhausted(*args, **kwargs):
                raise raised
            monkeypatch.setattr(climod, "ensemble", exhausted)
            code = main(["stoch", deck_path("ou_step.ckt"), "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [f"numerical failure: {shown}"]
            assert not out.exists()

    def test_step_size_warning_exit_code(self, tmp_path, capsys):
        # dt = 0.6 tau: stable, but not small against the 1 us RC constant
        code = main(["stoch", deck_path("ou_step.ckt"), "--dt", "600n",
                     "--paths", "4", "--out", str(tmp_path / "w.csv")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "warning: dt=6e-07 is not small vs fastest time constant 1e-06; "
            "the explicit drift may be unstable"]

    def test_bad_model_card_exit_code(self, tmp_path, capsys):
        deck = tmp_path / "badmodel.ckt"
        deck.write_text(
            "V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n"
            ".model M1 RTD (A=-1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
            ".op\n.end\n")
        code = main(["op", str(deck)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_echoed_in_header(self, tmp_path, capsys):
        out = tmp_path / "ou.csv"
        code = main(["stoch", deck_path("ou_step.ckt"), "--paths", "50",
                     "--seed", "31", "--out", str(out)])
        assert code == 0
        assert "seed=31" in _read(str(out))

    def test_flags_and_card_merge_field_by_field(self, tmp_path, capsys):
        out = tmp_path / "ou.csv"
        code = main(["stoch", deck_path("ou_step.ckt"), "--paths", "50", "--out", str(out)])
        assert code == 0
        assert "# seed=42 paths=50 dt=1e-08 " in _read(str(out))   # seed, dt: the card's
        # a card without seed=: the ensemble's own default
        deck = tmp_path / "ou.ckt"
        deck.write_text(_read(deck_path("ou_step.ckt")).replace(" seed=42", ""))
        code = main(["stoch", str(deck), "--paths", "50", "--out", str(out)])
        assert code == 0
        assert "# seed=0 paths=50 " in _read(str(out))

    def test_counts_parse_as_on_cards(self, tmp_path, capsys):
        out = tmp_path / "ou.csv"
        code = main(["stoch", deck_path("ou_step.ckt"), "--paths", "4.0", "--seed", "4e1",
                     "--out", str(out)])
        assert code == 0
        assert "# seed=40 paths=4 " in _read(str(out))
        assert main(["stoch", deck_path("ou_step.ckt"), "--paths", "2.5"]) == 1
        assert "argument --paths: '2.5' must be an integer" in capsys.readouterr().err

    def test_seed_beyond_double_precision(self, tmp_path, capsys):
        # 2**53 + 1 from the card and from the flag is the same run, and not
        # the run of 2**53
        deck = tmp_path / "ou.ckt"
        deck.write_text(_read(deck_path("ou_step.ckt")).replace(
            " seed=42", " seed=9007199254740993"))
        runs = {}
        for name, argv in (("card", [str(deck)]),
                           ("flag", [deck_path("ou_step.ckt"), "--seed", "9007199254740993"]),
                           ("2**53", [deck_path("ou_step.ckt"), "--seed", "9007199254740992"])):
            out = tmp_path / f"{name}.csv"
            assert main(["stoch", *argv, "--paths", "8", "--out", str(out)]) == 0
            runs[name] = _read(str(out))
        assert "# seed=9007199254740993 " in runs["card"]
        assert runs["card"] == runs["flag"] != runs["2**53"]

    def test_window_flag(self, tmp_path, capsys):
        out = tmp_path / "ou.csv"
        code = main(["stoch", deck_path("ou_step.ckt"), "--paths", "50",
                     "--window", "1u", "2u", "--out", str(out)])
        assert code == 0
        text = _read(str(out))
        assert "window=[1e-06,2e-06]" in text
        assert "peak(out):" in text

    def test_mean_matches_analytic_charging(self, tmp_path, capsys):
        out = tmp_path / "ou.csv"
        code = main(["stoch", deck_path("ou_step.ckt"), "--paths", "2000",
                     "--out", str(out)])
        assert code == 0
        header, data = _csv_rows(str(out))
        t = data[:, 0]
        mean = data[:, header.index("mean(out)")]
        var = data[:, header.index("var(out)")]
        lam = 1e6
        exact = 1.0 - np.exp(-lam * t)
        se = np.sqrt(var / 2000.0)
        mask = t > 0
        assert np.all(np.abs(mean[mask] - exact[mask]) <= 4 * se[mask] + 1e-9)
