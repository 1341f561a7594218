import json

import numpy as np
import pytest

from maxsat import cli
from maxsat.cli import main
from maxsat.recursion import uncoupled_fixed_point
from maxsat.systems import example1_system


EX1 = {"type": "example", "id": 1}
LDPC = {"type": "ldpc", "lambda": "x^2", "rho": "x^5"}
CS = {"type": "cs", "sigma2": 1e-4, "delta": 0.5}

# (key, command, system, command params): one bad value per config number
BAD_NUMBERS = [
    ("eps", "potential-curve", LDPC, {"eps": "high"}),
    ("grid_n", "potential-curve", EX1, {"grid_n": "many"}),
    ("N", "coupled-run", EX1, {"N": 20.7, "w": 3}),
    ("w", "coupled-run", EX1, {"N": 20, "w": True}),
    ("tol", "coupled-run", EX1, {"N": 20, "w": 3, "tol": "small"}),
    ("max_iters", "coupled-run", EX1, {"N": 20, "w": 3, "max_iters": 1e400}),
    ("progress", "coupled-run", EX1, {"N": 20, "w": 3, "progress": 2.5}),
    ("eps_lo", "exit-curves", LDPC, {"eps_lo": "low"}),
    ("eps_hi", "exit-curves", LDPC, {"eps_hi": None}),
    ("n", "thresholds", {"type": "gldpc", "n": "x", "t": 4}, {}),
    ("t", "thresholds", {"type": "gldpc", "n": 31, "t": "four"}, {}),
    ("variance", "potential-curve", {**CS, "variance": "big"}, {}),
    ("mass", "potential-curve", {**CS, "prior": "two_point", "mass": "heavy"}, {}),
    ("rho_s", "potential-curve", {**CS, "prior": "two_point", "rho_s": "x"}, {}),
    ("sigma2", "potential-curve", {**CS, "sigma2": "x"}, {}),
    ("delta", "potential-curve", {**CS, "delta": "x"}, {}),
]


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path, newline="") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                k, v = line[1:].strip().split("=", 1)
                meta[k] = v
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


class TestPotentialCurve:
    def test_curve_and_minimizer_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "command": {"grid_n": 400}})
        out = str(tmp_path / "curve.csv")
        assert main(["potential-curve", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["series", "x", "U_s"]
        curve = [r for r in rows if r[0] == "potential"]
        mins = [r for r in rows if r[0] == "minimizer"]
        assert len(curve) >= 400
        assert len(mins) == 1 and float(mins[0][1]) == 0.0
        assert meta["version"]

    @pytest.mark.parametrize("command,system,params", [
        ("potential-curve", {"type": "example", "id": 2}, {}),
        ("coupled-run", {"type": "example", "id": 1}, {"N": 40, "w": 4}),
        ("thresholds", {"type": "ldpc", "lambda": "x^2", "rho": "x^5"}, {}),
        ("exit-curves", {"type": "ldpc", "lambda": "x^2", "rho": "x^5"},
         {"eps_n": 11, "x_n": 64}),
        ("verify", None, {}),
    ], ids=["potential-curve", "coupled-run", "thresholds", "exit-curves", "verify"])
    def test_bit_identical_outputs(self, tmp_path, command, system, params):
        # every command's output is a function of its config alone
        argv = [command]
        if system is not None:
            argv += ["--config", write_cfg(tmp_path, "c.json", {"schema": 1, "system": system,
                                                                "command": params})]
        o1, o2 = str(tmp_path / "a.out"), str(tmp_path / "b.out")
        assert main(argv + ["--out", o1]) == 0
        assert main(argv + ["--out", o2]) == 0
        assert open(o1, "rb").read() == open(o2, "rb").read()

    def test_cs_two_point(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "cs", "prior": "two_point", "mass": 1.0,
                                    "rho_s": 0.1, "sigma2": 1e-4, "delta": 0.5}})
        out = str(tmp_path / "cs.csv")
        assert main(["potential-curve", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert [r for r in rows if r[0] == "minimizer"]

    def test_param_system_needs_eps(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4}})
        assert main(["potential-curve", "--config", cfg]) == 2
        out = str(tmp_path / "g.csv")
        assert main(["potential-curve", "--config", cfg, "--eps", "0.2",
                     "--out", out]) == 0

    def test_grid_floor(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "command": {"grid_n": 100}})
        assert main(["potential-curve", "--config", cfg]) == 2

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1}})
        out = str(tmp_path / "curve.json")
        assert main(["potential-curve", "--config", cfg, "--format", "json",
                     "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["system"] == "example"
        assert len([r for r in obj["series"] if r["series"] == "potential"]) >= 400

    def test_oscillatory_example_curve(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 3},
                         "command": {"grid_n": 4000}})
        out = str(tmp_path / "osc.csv")
        assert main(["potential-curve", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_csv(out)
        pts = [(float(r[1]), float(r[2])) for r in rows
               if r[0] == "potential" and 0.01 <= float(r[1]) <= 0.1]
        us = np.array([u for _, u in pts])
        inner = np.arange(1, len(us) - 1)
        n_min = int(np.sum((us[inner] < us[inner - 1]) & (us[inner] <= us[inner + 1])))
        assert n_min >= 5


class TestCoupledRun:
    def test_w1_matches_uncoupled(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "command": {"N": 9, "w": 1}})
        out = str(tmp_path / "run.csv")
        assert main(["coupled-run", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        ref, _ = uncoupled_fixed_point(example1_system(), 1.0)
        assert header == ["i", "x_i"]
        assert len(rows) == 9
        assert abs(float(meta["max"]) - ref) <= 1e-9
        assert meta["converged"] == "true"

    def test_nonconvergence_exit_3_with_partial_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "command": {"N": 16, "w": 2, "max_iters": 3}})
        out = str(tmp_path / "run.csv")
        assert main(["coupled-run", "--config", cfg, "--out", out]) == 3
        meta, _, rows = read_csv(out)
        assert meta["converged"] == "false"
        assert len(rows) == 17

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "command": {"N": 9, "w": 1}})
        out = str(tmp_path / "run.csv")
        assert main(["coupled-run", "--config", cfg, "--N", "5", "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5

    def test_state_evolution_system(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "cs", "prior": "gaussian",
                                    "variance": 1.0, "sigma2": 0.25, "delta": 0.5},
                         "command": {"N": 32, "w": 4}})
        out = str(tmp_path / "run.csv")
        assert main(["coupled-run", "--config", cfg, "--out", out]) == 0
        meta, _, rows = read_csv(out)
        assert len(rows) == 35
        assert 0.0 < float(meta["max"]) < 1.0


class TestCoupledRunJumps:
    """coupled-run takes coupled_fixed_point's wave jumps, counts them in
    the '# jumps' line, and --progress writes rows from the same watch to
    stderr without changing the output."""

    GLDPC = {"schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4},
             "command": {"eps": 0.250287, "N": 975, "w": 11}}

    def test_progress_rows_leave_the_output_as_it_is(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", self.GLDPC)
        plain, watched = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["coupled-run", "--config", cfg, "--out", plain]) == 0
        assert capsys.readouterr().err == ""
        assert main(["coupled-run", "--config", cfg, "--out", watched, "--progress", "40"]) == 0
        with open(plain, "rb") as a, open(watched, "rb") as b:
            assert a.read() == b.read()
        meta, _, rows = read_csv(plain)
        iters, jumps = int(meta["iterations"]), int(meta["jumps"])
        assert meta["converged"] == "true" and float(meta["max"]) <= 1e-10
        # 2641 plain iterations
        assert jumps >= 2 and iters < 1000
        header, *lines = capsys.readouterr().err.splitlines()
        assert header == "iteration,step,max,front,speed,jumps"
        table = [line.split(",") for line in lines]
        assert [int(r[0]) for r in table] == list(range(40, iters, 40))
        assert sum(int(r[5]) for r in table) == jumps
        # the front moves at a steady speed before the first jump
        first = next(i for i, r in enumerate(table) if r[5] != "0")
        assert all(float(r[3]) > 0.0 for r in table[:first])
        assert float(table[first][4]) == pytest.approx(0.18, abs=0.01)

    def test_run_without_jumps_says_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": EX1, "command": {"N": 16, "w": 3}})
        out = str(tmp_path / "run.csv")
        assert main(["coupled-run", "--config", cfg, "--out", out]) == 0
        meta, _, _ = read_csv(out)
        assert meta["jumps"] == "0"
        assert list(meta)[list(meta).index("iterations") + 1] == "jumps"

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_progress_below_one_exits_2(self, tmp_path, capsys, flag):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": EX1, "command": {"N": 16, "w": 3}})
        assert main(["coupled-run", "--config", cfg, "--progress", flag]) == 2
        assert "progress must be >= 1" in capsys.readouterr().err

    def test_progress_is_a_coupled_run_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"schema": 1, "system": LDPC, "command": {}})
        assert main(["thresholds", "--config", cfg, "--progress", "5"]) == 2


class TestThresholds:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        # json reads NaN and Infinity; a NaN tol used to end in an IndexError
        # and an infinite one printed 0.5 for three thresholds
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "ldpc", "lambda": "x^2", "rho": "x^5"},
                         "command": {"tol": tol}})
        out = tmp_path / "t.json"
        assert main(["thresholds", "--config", cfg, "--out", str(out)]) == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_below_float_spacing_terminates(self, tmp_path, monkeypatch):
        # 1e-17 is below the float spacing near eps_c (1.1e-16), so the
        # envelope search has to stop on adjacent floats, not at b - a <= tol
        import maxsat.thresholds as thr
        real, calls = thr.minimize_us_at, []

        def capped(*a, **k):
            calls.append(None)
            assert len(calls) <= 100, "the envelope search does not stop"
            return real(*a, **k)

        monkeypatch.setattr(thr, "minimize_us_at", capped)
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "ldpc",
                                    "lambda": "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20",
                                    "rho": "0.6 x^4 + 0.4 x^12"},
                         "command": {"tol": 1e-17}})
        out = tmp_path / "t.json"
        assert main(["thresholds", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["eps_c"] == pytest.approx(0.62192946106121, abs=1e-9)

    def test_gldpc_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4}})
        out = str(tmp_path / "t.json")
        assert main(["thresholds", "--config", cfg, "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["eps_stab"] == 1.0
        assert obj["eps_c"] == pytest.approx(0.2554582, abs=1e-5)
        assert abs(obj["eps_maxwell"] - obj["eps_c"]) <= 1e-6
        assert obj["eps_single"] < obj["eps_c"]

    def test_ldgm_undefined_with_inverse_table(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "ldgm", "lambda": "x^5",
                                    "rho": "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"}})
        out = str(tmp_path / "t.json")
        assert main(["thresholds", "--config", cfg, "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["eps_c"] is None
        assert "undefined" in obj["note_eps_c"]
        assert len(obj["inverse_psi_table"]) > 0

    def test_unknown_threshold_rejected_before_computing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "threshold_report",
                            lambda *a: pytest.fail("thresholds computed for a bad config"))
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "ldgm", "lambda": "x^5",
                                    "rho": "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"},
                         "command": {"which": "eps_bp"}})
        assert main(["thresholds", "--config", cfg]) == 2

    def test_requested_undefined_threshold_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1,
                         "system": {"type": "ldgm", "lambda": "x^5",
                                    "rho": "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"},
                         "command": {"which": "eps_c"}})
        assert main(["thresholds", "--config", cfg, "--out", "/dev/null"]) == 4

    def test_scalar_system_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1}})
        assert main(["thresholds", "--config", cfg]) == 2


class TestExitCurves:
    def test_three_series(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1,
            "system": {"type": "ldpc", "lambda": "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20",
                       "rho": "0.6 x^4 + 0.4 x^12"},
            "command": {"series": ["ebp", "map", "sc"], "eps_lo": 0.5, "eps_hi": 0.8,
                        "eps_n": 13, "x_n": 64, "N": 64, "w": 6, "sc_eps_n": 7},
        })
        out = str(tmp_path / "e.csv")
        assert main(["exit-curves", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == ["series", "eps", "exit"]
        series = {r[0] for r in rows}
        assert series == {"ebp", "map", "sc-finite"}
        # away from the transition the finite chain tracks the minimizer curve
        sc = {float(r[1]): float(r[2]) for r in rows if r[0] == "sc-finite"}
        mp = {round(float(r[1]), 9): float(r[2]) for r in rows if r[0] == "map"}
        for e, v in sc.items():
            if abs(e - 0.622) > 0.03 and round(e, 9) in mp:
                assert abs(v - mp[round(e, 9)]) <= 0.02

    @pytest.mark.parametrize("system, eps_lo, eps_hi", [
        ({"type": "ldpc", "lambda": "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20",
          "rho": "0.6 x^4 + 0.4 x^12"}, 0.5815, 0.691),
        ({"type": "ldgm", "L": "x^6", "rho": "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"},
         0.45, 0.56),
    ], ids=["ldpc8", "ldgm9"])
    def test_map_series_searches_no_jump(self, tmp_path, monkeypatch, system, eps_lo, eps_hi):
        # each window holds a jump of the largest minimizer, and the rows
        # print none, so the command locates none (thresholds.map_jumps)
        def refused(*args):
            raise AssertionError("exit-curves searched a jump")

        monkeypatch.setattr("maxsat.thresholds._refine_jumps", refused)
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1, "system": system,
            "command": {"series": ["ebp", "map"], "eps_lo": eps_lo, "eps_hi": eps_hi,
                        "eps_n": 23, "x_n": 64},
        })
        out = str(tmp_path / "e.csv")
        assert main(["exit-curves", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert sum(r[0] == "map" for r in rows) == 23

    def test_sc_nonconvergence_exit_3_with_partial_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1,
            "system": {"type": "ldpc", "lambda": "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20",
                       "rho": "0.6 x^4 + 0.4 x^12"},
            "command": {"series": ["sc"], "N": 50, "w": 3, "sc_eps_n": 2, "max_iters": 5},
        })
        out = str(tmp_path / "e.csv")
        # eps = 0 converges in two steps, eps = 1 hits the cap
        assert main(["exit-curves", "--config", cfg, "--out", out]) == 3
        _, _, rows = read_csv(out)
        assert [(r[0], float(r[1])) for r in rows] == [("sc-finite", 0.0), ("sc-finite", 1.0)]

    def test_scalar_system_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1}})
        assert main(["exit-curves", "--config", cfg]) == 2

    def test_unknown_series_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4},
            "command": {"series": ["bp"]},
        })
        assert main(["exit-curves", "--config", cfg]) == 2
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4},
            "command": {"series": [["ebp"]]},
        })
        assert main(["exit-curves", "--config", cfg]) == 2

    def test_inverted_eps_grid_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1, "system": {"type": "gldpc", "n": 31, "t": 4},
            "command": {"eps_lo": 0.8, "eps_hi": 0.2},
        })
        assert main(["exit-curves", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,value", [("eps_n", -3), ("x_n", 0), ("sc_eps_n", -1),
                                           ("eps_n", "many")])
    def test_sample_count_below_one_rejected(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, "c.json", {
            "schema": 1, "system": {"type": "ldpc", "lambda": "x^2", "rho": "x^5"},
            "command": {"series": ["ebp", "map", "sc"], "N": 20, "w": 3, key: value},
        })
        assert main(["exit-curves", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


class TestVerify:
    def test_default_all_pass(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "--out", out]) == 0
        obj = json.loads(open(out).read())
        suites = {k: v for k, v in obj.items() if k not in ("tool", "version")}
        assert suites and all(v == "pass" for v in suites.values())

    def test_injected_bug_fails_gradient_suite(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "--inject-bug", "negated-gradient", "--out", out]) == 1
        obj = json.loads(open(out).read())
        assert obj["gradient_fd"] == "fail"
        assert obj["potential_descent"] == "pass"


class TestRejectedFlags:
    """Flags a command does not implement exit 2 instead of being ignored."""

    @pytest.mark.parametrize("command, cfg, flags", [
        ("coupled-run", {"system": {"type": "example", "id": 1},
                         "command": {"N": 9, "w": 1}}, ["--format", "json"]),
        ("thresholds", {"system": {"type": "gldpc", "n": 31, "t": 4}},
         ["--format", "csv"]),
        ("verify", None, ["--N", "5"]),
        ("potential-curve", {"system": {"type": "example", "id": 1}}, ["--eps", "0.5"]),
        ("exit-curves", {"system": LDPC, "command": {"series": ["ebp"]}}, ["--N", "5"]),
        ("exit-curves", {"system": LDPC, "command": {"series": ["map", "ebp"]}},
         ["--w", "3"]),
    ])
    def test_unsupported_flag_exits_2(self, tmp_path, command, cfg, flags):
        argv = [command] + flags
        if cfg is not None:
            argv += ["--config", write_cfg(tmp_path, "c.json", cfg)]
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["thresholds", "--help"]) == 0

    @pytest.mark.parametrize("series, key", [
        (["ebp"], "N"), (["ebp"], "w"), (["ebp"], "sc_eps_n"), (["ebp"], "max_iters"),
        (["ebp"], "eps_n"), (["ebp"], "eps_lo"), (["map"], "x_n"), (["map"], "N"),
        (["map"], "sc_eps_n"), (["sc"], "eps_n"), (["sc"], "x_n"),
    ])
    def test_exit_curves_key_of_another_series_rejected(self, tmp_path, capsys, series, key):
        values = {"N": 5, "w": 3, "sc_eps_n": 3, "max_iters": 7, "eps_n": 4, "x_n": 8,
                  "eps_lo": 0.1}
        command = {"series": series, key: values[key]}
        if "sc" in series:
            command.update({"N": 5, "w": 3})
        cfg = write_cfg(tmp_path, "c.json", {"system": LDPC, "command": command})
        out = tmp_path / "e.csv"
        assert main(["exit-curves", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_format_config_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"system": {"type": "example", "id": 1},
                         "command": {"N": 9, "w": 1, "format": "json"}})
        out = tmp_path / "run.csv"
        assert main(["coupled-run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


class TestConfigErrors:
    def test_missing_config(self):
        assert main(["thresholds"]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": {"type": "example", "id": 1},
                         "bogus": True})
        assert main(["potential-curve", "--config", cfg]) == 2

    def test_unknown_system_type(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"system": {"type": "turbo"}})
        assert main(["thresholds", "--config", cfg]) == 2

    def test_unknown_command_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"system": {"type": "example", "id": 1},
                         "command": {"grid": 7}})
        assert main(["potential-curve", "--config", cfg]) == 2

    def test_bad_schema_version(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 2, "system": {"type": "example", "id": 1}})
        assert main(["potential-curve", "--config", cfg]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        assert main(["potential-curve", "--config", str(p)]) == 2

    def test_unreadable_config(self, tmp_path, capsys):
        # a directory cannot be read as a file
        assert main(["thresholds", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config: ")

    @pytest.mark.parametrize("text, message", [
        ("[1]", "config must be a JSON object"),
        ('{"system": {"type": "example", "id": 1}, "command": 3}', '"command" must be an object'),
        ('{"system": {"type": "example", "id": 1}, "command": {"format": "xml"}}',
         "unknown format 'xml'"),
    ], ids=["not-an-object", "command-not-an-object", "format"])
    def test_config_shape_errors(self, tmp_path, capsys, text, message):
        p = tmp_path / "c.json"
        p.write_text(text)
        assert main(["potential-curve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_unknown_injected_bug(self, capsys):
        assert main(["verify", "--inject-bug", "flipped-sign"]) == 2
        assert capsys.readouterr().err == "config error: unknown injected bug 'flipped-sign'\n"

    def test_numeric_error_exits_3(self, tmp_path, capsys):
        # at sigma2 = 1e-10 the two-point f is too steep for the tabulated
        # antiderivative to reach its error bound
        cfg = write_cfg(tmp_path, "c.json", {"system": {
            "type": "cs", "prior": "two_point", "sigma2": 1e-10, "delta": 0.3}})
        out = tmp_path / "curve.csv"
        assert main(["potential-curve", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric error: antiderivative table: ")
        assert not out.exists()

    def test_bad_degree_distribution(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"system": {"type": "ldpc", "lambda": "0.9 x",
                                    "rho": "x^5"}})
        assert main(["thresholds", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,command,system,params", BAD_NUMBERS,
                             ids=[case[0] for case in BAD_NUMBERS])
    def test_unconvertible_number_exits_2(self, tmp_path, capsys, key, command, system,
                                          params):
        # 1e400 reads as inf, which int() rejects with an OverflowError
        cfg = write_cfg(tmp_path, "c.json", {"schema": 1, "system": system, "command": params})
        assert main([command, "--config", cfg]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    def test_example_and_cs_validation(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"system": {"type": "example", "id": 9}})
        assert main(["potential-curve", "--config", cfg]) == 2
        cfg = write_cfg(tmp_path, "c.json",
                        {"system": {"type": "cs", "prior": "gaussian"}})
        assert main(["potential-curve", "--config", cfg]) == 2
        cfg = write_cfg(tmp_path, "c.json",
                        {"system": {"type": "cs", "prior": "laplace", "sigma2": 1e-4,
                                    "delta": 0.5}})
        assert main(["potential-curve", "--config", cfg]) == 2


class TestSystemKeys:
    def test_node_form_keys_match_edge_form(self, tmp_path):
        # L = x^3 and R = x^6 are the node forms of lambda = x^2, rho = x^5;
        # only the fingerprint of the system object differs
        reports = []
        for name, system in (("node", {"type": "ldpc", "L": "x^3", "R": "x^6"}),
                             ("edge", LDPC)):
            cfg = write_cfg(tmp_path, f"{name}.json", {"schema": 1, "system": system})
            out = str(tmp_path / f"{name}.json.out")
            assert main(["thresholds", "--config", cfg, "--out", out]) == 0
            with open(out) as fh:
                reports.append(json.load(fh))
        assert reports[0].pop("fingerprint") != reports[1].pop("fingerprint")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("system, message", [
        ({"type": "ldpc", "lambda": "x^2", "L": "x^3", "rho": "x^5"},
         "give either 'lambda' or 'L', not both"),
        ({"type": "ldgm", "L": "x^6", "rho": "x^5", "R": "x^6"},
         "give either 'rho' or 'R', not both"),
        ({"type": "isi", "R": "x^6"}, "system needs 'lambda' or 'L'"),
        ({"type": "ldpc", "lambda": "x^2"}, "system needs 'rho' or 'R'"),
    ], ids=["both-lambda-L", "both-rho-R", "neither-lambda-L", "neither-rho-R"])
    def test_degree_key_errors(self, tmp_path, capsys, system, message):
        cfg = write_cfg(tmp_path, "c.json", {"schema": 1, "system": system})
        assert main(["thresholds", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_stdout_without_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"schema": 1, "system": EX1, "command": {"grid_n": 400}})
        out = str(tmp_path / "curve.csv")
        assert main(["potential-curve", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert main(["potential-curve", "--config", cfg]) == 0
        with open(out, newline="") as fh:
            assert capsys.readouterr().out == fh.read()
