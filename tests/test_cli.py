import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hbspace import cli
from hbspace.catalog import space_from_json
from hbspace.cli import build_parser, main
from hbspace.model import SpaceHandle
from hbspace.symbols import defect_form, estimate_rank, weighted_space_symbol
from conftest import (RANK2_EXAMPLE, ODD_ROOT_ROW, ddelta_taylor, noncontractive_row,
                      run_fresh, scaled_row)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kernel_named_space_at_origin_column(tmp_path, capsys):
    code, out, _ = run(["kernel", "--named", "h2",
                        "--pairs", "0.3:0;0.5:0;0.1+0.2i:0"], capsys)
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("= 1+0j")


def test_kernel_reference_value(capsys):
    code, out, _ = run(["kernel", "--named", "rank1-half", "--pairs", "0.5:0.5"], capsys)
    assert code == 0
    assert "1.16666666667" in out


def test_kernel_csv_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(["kernel", "--named", "rank1-half", "--seed", "42",
                          "--out", str(d)], capsys)
        assert code == 0
    assert (d1 / "kernel.csv").read_bytes() == (d2 / "kernel.csv").read_bytes()
    assert (d1 / "kernel.svg").exists()


def test_csv_header_carries_version(tmp_path, capsys):
    code, _, _ = run(["kernel", "--named", "h2", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("# hbspace")
    assert "version=" in lines[0]
    assert lines[1] == "z,lam,k"


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["kernel", "--space", str(bad)], capsys)
    assert code == 2
    assert "configuration error" in err


def test_unknown_named_space_exits_2(capsys):
    code, _, err = run(["kernel", "--named", "nope"], capsys)
    assert code == 2


def test_contraction_violation_exits_1(tmp_path, capsys):
    definition = tmp_path / "space.json"
    definition.write_text(json.dumps({"kind": "explicit", "components": [[0.0, 1.2]]}))
    code, _, err = run(["verify", "--space", str(definition)], capsys)
    assert code == 1
    assert "invariant failure" in err


def test_noncontractive_between_grid_points_exits_1(tmp_path, capsys):
    rows = [[[c.real, c.imag] for c in row] for row in noncontractive_row()]
    definition = tmp_path / "space.json"
    definition.write_text(json.dumps({"kind": "explicit", "components": rows}))
    code, _, err = run(["verify", "--space", str(definition)], capsys)
    assert code == 1
    assert "negative on the circle" in err


def test_odd_root_row_exits_1(tmp_path, capsys):
    definition = tmp_path / "space.json"
    definition.write_text(json.dumps({"kind": "explicit", "components": ODD_ROOT_ROW}))
    for command in ("verify", "mz-test"):
        code, _, err = run([command, "--space", str(definition)], capsys)
        assert code == 1, command
        assert "not a contraction" in err


def test_missing_space_exits_2(capsys):
    code, _, err = run(["norm", "--coeffs", "1,2"], capsys)
    assert code == 2


def test_norm_subcommand(capsys):
    code, out, _ = run(["norm", "--named", "rank1-half", "--coeffs", "0,1"], capsys)
    assert code == 0
    assert "member: True" in out
    assert "1.41421356237" in out


def test_embed_subcommand(tmp_path, capsys):
    code, out, _ = run(["embed", "--named", "rank1-half", "--coeffs", "0,1",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "residual" in out
    assert (tmp_path / "embed.csv").exists()


def test_non_finite_inputs_exit_2(capsys):
    for args in (["embed", "--named", "rank1-half", "--coeffs", "nan,1", "--json"],
                 ["norm", "--named", "dirichlet-origin", "--coeffs", "nan,1"],
                 ["norm", "--named", "rank1-half", "--coeffs", "1e400,1"],
                 ["poly-density", "--named", "rank1-half", "--kernel-at", "nan"],
                 ["embed", "--named", "rank1-half", "--coeffs", "inf,1", "--json"],
                 ["norm", "--named", "dirichlet-origin", "--coeffs", "1,-inf"],
                 ["embed", "--named", "cusp", "--kernel-at", "inf", "--json"]):
        code, out, err = run(args, capsys)
        assert code == 2, args
        assert "non-finite" in err
        assert "NaN" not in out


def test_embed_dirichlet_space(capsys):
    code, out, _ = run(["embed", "--named", "dirichlet-origin", "--coeffs", "0,1", "--json"],
                       capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["residual"] == 0.0
    assert abs(report["norm"] - 2.0 ** 0.5) < 1e-15


def test_norm_formula_subcommand(tmp_path, capsys):
    code, out, _ = run(["norm-formula", "--named", "rank1-half", "--coeffs", "0,1",
                        "--quick", "--json", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "direct norm^2: 2" in out
    assert "limit (r = 1): 2" in out
    report = json.loads(out[out.index("{"):])
    assert report["relative_gap"] <= 1e-12
    assert (tmp_path / "norm_formula.csv").exists()
    assert (tmp_path / "norm_formula.svg").exists()


def test_carleson_subcommand(tmp_path, capsys):
    code, out, _ = run(["carleson", "--named", "rank1-half", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "admits reverse Carleson measure: True" in out
    lines = (tmp_path / "carleson.csv").read_text().splitlines()
    assert lines[1] == "lam,h2,g"
    code, out, _ = run(["carleson", "--named", "rank1-half", "--json"], capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["admits"] is True
    assert report["radius_h2"] == 1.0 - 2.0 ** -16
    assert abs(report["constant"] - 2.0) <= 2e-12
    # no measure: the constant is infinite, and strict JSON has no infinity
    code, out, _ = run(["carleson", "--named", "cusp", "--json"], capsys)
    assert code == 0
    assert "reverse-Carleson constant: inf" in out
    assert "Infinity" not in out and "NaN" not in out
    report = json.loads(out[out.index("{"):])
    assert report["admits"] is False
    assert report["constant"] is None


def test_mz_test_subcommand(capsys):
    code, out, _ = run(["mz-test", "--named", "cusp"], capsys)
    assert code == 0
    assert "invariant: True" in out
    code, out, _ = run(["mz-test", "--named", "dirichlet-pair"], capsys)
    assert code == 0
    assert "invariant: True" in out
    code, out, _ = run(["mz-test", "--named", "cusp", "--json"], capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["invariant"] and report["conclusive"]
    assert abs(report["log_estimate"] + 2.0 * math.log(2.0)) <= 1e-12


def test_mz_test_emits_one_key_set_on_both_space_kinds(capsys):
    keys = []
    for name in ("dirichlet-pair", "cusp"):
        code, out, _ = run(["mz-test", "--named", name, "--json"], capsys)
        assert code == 0
        keys.append(set(json.loads(out[out.index("{"):])))
    assert keys[0] == keys[1] == {"command", "conclusive", "invariant", "log_estimate", "note"}


def _readme_commands():
    """The argument lists of the README's command table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition("#")[0])[1:] for line in table.splitlines()
            if line.startswith("hbspace ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_report_conclusive_and_note(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg == "out/" else arg for arg in argv]
    code, out, _ = run(argv + ["--json"] * ("--json" not in argv), capsys)
    assert code == 0
    report = json.loads(out[out.index("{\n"):])
    assert report["command"] == argv[0]
    assert report["conclusive"] is True and report["note"] == ""


def test_notes_are_printed_and_reported(monkeypatch, capsys):
    code, out, _ = run(["carleson", "--space", json.dumps(_explicit([[0.0, 1.0]])), "--json"],
                       capsys)
    assert code == 0
    text, brace, tail = out.partition("{")
    report = json.loads(brace + tail)
    assert text == report["note"] + "\n" and "inapplicable" in text
    assert report == {"command": "carleson", "applicable": False, "conclusive": True,
                      "note": report["note"]}
    # a truncated symbol: the rank is a lower bound and the invariance verdict inconclusive
    truncated = SpaceHandle(weighted_space_symbol([1.0, 2.0, 3.0], truncated=True))
    monkeypatch.setattr(cli, "_load_space", lambda args: truncated)
    for command in ("rank", "mz-test"):
        code, out, _ = run([command, "--json"], capsys)
        assert code == 0
        text, brace, tail = out.partition("{")
        report = json.loads(brace + tail)
        assert report["conclusive"] is False and "truncated" in report["note"]
        assert text.endswith(report["note"] + "\n")


def test_norm_reports_the_residual_of_a_non_member(capsys):
    # on H(z) = constants, the part z^3 of f = 1 + z^3 lies outside the space
    code, out, _ = run(["norm", "--space", json.dumps(_explicit([[0.0, 1.0]])),
                        "--coeffs", "1,0,0,1", "--json"], capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["member"] is False and report["norm"] is None
    assert report["residual"] == pytest.approx(1.0, rel=1e-14)


def test_poly_density_subcommand(tmp_path, capsys):
    code, out, _ = run(["poly-density", "--named", "rank1-half",
                        "--kernel-at", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "poly_density.csv").exists()


def test_factor_subcommand(tmp_path, capsys):
    # the cusp's defect factor is a = (1 - z) / 2, of degree 1
    code, out, _ = run(["factor", "--named", "cusp", "--json", "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    text, brace, tail = out.partition("{")
    residual = float(re.fullmatch(r"residual: (\S+)  degree: 1\n", text).group(1))
    report = json.loads(brace + tail)
    assert report == {"command": "factor", "residual": report["residual"], "degree": 1,
                      "conclusive": True, "note": ""}
    assert residual == float(f"{report['residual']:.6e}") and residual <= 1e-12
    meta = (tmp_path / "factor.csv").read_text().splitlines()[0]
    assert f"degree=1 residual={report['residual']}" in meta


def test_kernel_at_outside_the_disk_exits_2(capsys):
    for name in ("rank1-half", "dirichlet-origin"):
        code, out, err = run(["embed", "--named", name, "--kernel-at", "1.5", "--json"],
                             capsys)
        assert code == 2, name
        assert "< 1" in err
        assert "Infinity" not in out


def test_imaginary_unit_parsing(capsys):
    # k(z, lam) = (1 - z conj(lam) / 2) / (1 - z conj(lam)) on rank1-half
    code, out, _ = run(["kernel", "--named", "rank1-half", "--pairs", "0.5i:0.5i"], capsys)
    assert code == 0
    assert out.strip().endswith("= 1.16666666667+0j")


def test_rank_subcommand(capsys):
    code, out, _ = run(["rank", "--named", "dirichlet-pair"], capsys)
    assert code == 0
    assert out == "defect rank: 2\n"
    for option in (["--quick"], ["--gram-degree", "24"], ["--tol", "1e-6"]):
        code, _, err = run(["rank", "--named", "dirichlet-pair"] + option, capsys)
        assert code == 2
        assert option[0] in err


def _explicit(rows):
    return {"kind": "explicit",
            "components": [[[c.real, c.imag] for c in np.asarray(row, dtype=complex)]
                           for row in rows]}


_SEED_RNG = np.random.default_rng(7)
RANK_SPECS = {
    **{name: {"kind": "named", "name": name}
       for name in ("h2", "rank1-half", "cusp", "dirichlet-origin", "dirichlet-half",
                    "dirichlet-pair")},
    "two-term": _explicit([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0, 0.5]]),
    "weighted": {"kind": "weighted", "weights": [1.0, 2.0, 2.5, 3.0]},
    "ddelta": _explicit([ddelta_taylor()]),
    "rank2-example": _explicit(RANK2_EXAMPLE),
    # four rows for each rank 1..3 and sup 0.5, 0.9, 1; one is a touching
    # monomial, a scalar inner row
    **{f"seeded-{rank}-{sup}-{i}": _explicit(scaled_row(_SEED_RNG, rank, sup))
       for rank in (1, 2, 3) for sup in (0.5, 0.9, 1.0) for i in range(4)},
}


@pytest.mark.parametrize("name", RANK_SPECS)
def test_rank_is_the_space_rank_and_the_gram_estimate(name, capsys):
    text = json.dumps(RANK_SPECS[name])
    space = space_from_json(text)
    code, out, err = run(["rank", "--space", text, "--json"], capsys)
    if not space.mz_invariant:  # only a touching monomial is inner
        assert name.startswith("seeded-1-1.0-")
        assert code == 3 and "not forward-shift invariant" in err
        return
    assert code == 0
    rank = json.loads(out[out.index("{"):])["rank"]
    assert rank == space.n
    for degree in (24, 48):
        assert estimate_rank(space.monomial_gram(degree)) == rank
        # the hypothesis itself, with the margin that estimate_rank refuses below
        _, evals, bound = defect_form(space.monomial_gram(degree))
        assert evals[0] >= -bound


def test_rank_refuses_an_inner_handle(capsys):
    code, out, err = run(["rank", "--space", json.dumps(_explicit([[0.0, 1.0]]))], capsys)
    assert code == 3
    assert out == "" and "not forward-shift invariant" in err


def test_non_finite_definitions_exit_2(capsys):
    dirichlet = '{"kind": "dirichlet", "atoms": [{"z": %s, "c": %s}]}'
    for args in (["norm", "--space", dirichlet % ("[0.5, 0]", "NaN"), "--coeffs", "0,1"],
                 ["norm", "--space", dirichlet % ("[0.5, 0]", "Infinity"), "--coeffs", "0,1"],
                 ["norm", "--space", dirichlet % ("[NaN, 0]", "1"), "--coeffs", "0,1"],
                 ["verify", "--space", '{"kind": "weighted", "weights": [1, NaN, 3]}'],
                 ["norm", "--space", json.dumps(_explicit([[0.0, np.nan]])),
                  "--coeffs", "0,1"],
                 ["dual", "--weights", "1,nan,0.3", "--json"]):
        code, out, err = run(args, capsys)
        assert code == 2, args
        assert "non-finite" in err
        assert out == ""


def test_dual_subcommand(capsys):
    code, out, _ = run(["dual", "--weights", "1,0.5,0.25"], capsys)
    assert code == 0
    assert "dual=4" in out
    code, _, _ = run(["dual"], capsys)
    assert code == 2


def test_verify_subcommand_passes(capsys):
    # the last space has a boundary atom and a weak atom near the circle
    boundary = json.dumps({"kind": "dirichlet", "atoms": [
        {"z": 1.0, "c": 0.3}, {"z": [math.cos(2.0), math.sin(2.0)], "c": 2.0},
        {"z": 0.99, "c": 0.01}]})
    for space in (["--named", "h2"], ["--named", "rank1-half"], ["--named", "cusp"],
                  ["--named", "dirichlet-pair"], ["--space", boundary]):
        code, out, _ = run(["verify"] + space, capsys)
        assert code == 0, space
        assert "FAIL" not in out
        assert re.search(r"^\[PASS\] defect-form: least eigenvalue ", out, re.M), space
        assert "backward-contractivity" not in out and "defect-rank" not in out


def test_verify_fails_a_refuted_or_misdeclared_defect_form(monkeypatch, capsys):
    # dirichlet-pair (rank 2) read through its own Gram with ||z^47||^2 lowered
    # by 1, which refutes the hypothesis at z^47 and keeps rank 2, and through
    # the rank-1 Gram of dirichlet-origin
    space = space_from_json('{"kind": "named", "name": "dirichlet-pair"}')
    origin = space_from_json('{"kind": "named", "name": "dirichlet-origin"}')
    own = space.monomial_gram
    lowered = own(47).copy()
    lowered[47, 47] -= 1.0
    monkeypatch.setattr(cli, "_load_space", lambda args: space)
    for gram, detail in ((lowered, "least eigenvalue -1.00e+00"),
                         (origin.monomial_gram(47), "rank 1, declared 2")):
        monkeypatch.setattr(space, "monomial_gram", lambda d: gram if d == 47 else own(d))
        code, out, _ = run(["verify"], capsys)
        assert code == 1
        line = re.search(r"^\[FAIL\] defect-form: .*$", out, re.M).group()
        assert detail in line


def test_suite_quick_json_schema(tmp_path, capsys):
    code, out, _ = run(["suite", "--quick", "--json", "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "hbspace"
    assert payload["passed"] is True
    assert payload["quick"] is True
    assert len(payload["results"]) == 12
    for item in payload["results"]:
        assert set(item) == {"id", "name", "passed", "detail", "elapsed_seconds"}
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_kernel_outputs_are_deterministic(tmp_path, capsys):
    # the table and the heatmap are each one broadcast kernel call; two runs
    # with one seed write the same bytes
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(["kernel", "--named", "dirichlet-pair", "--seed", "3",
                          "--json", "--out", str(d)], capsys)
        assert code == 0
    for name in ("kernel.csv", "kernel.svg", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_quick_belongs_to_the_subcommands_that_read_it(capsys):
    parser = build_parser()
    for argv in (["kernel"], ["norm-formula"], ["poly-density"], ["suite"]):
        assert parser.parse_args(argv + ["--quick"]).quick
    for argv in (["embed"], ["norm"], ["carleson"], ["mz-test"], ["factor"], ["rank"],
                 ["dual"], ["verify"]):
        code, _, err = run(argv + ["--quick"], capsys)
        assert code == 2
        assert "--quick" in err


def test_import_stays_light():
    # scipy.linalg alone is about two thirds of the import time of a cold command;
    # no scipy module loads on import, nor while the quick suite runs; the CLI
    # runs no thread pool, so concurrent.futures is not imported either
    run_fresh("-c",
              "import sys\n"
              "from hbspace.cli import main\n"
              "assert 'concurrent.futures' not in sys.modules\n"
              "def scipy_modules():\n"
              "    return sorted(name for name in sys.modules\n"
              "                  if name == 'scipy' or name.startswith('scipy.'))\n"
              "assert not scipy_modules(), scipy_modules()\n"
              "assert main(['suite', '--quick']) == 0\n"
              "assert not scipy_modules(), scipy_modules()")


@pytest.mark.parametrize("argv", [["kernel", "--named", "rank1-half", "--pairs", "0.5:0.5"],
                                  ["rank", "--named", "dirichlet-pair"]])
def test_cold_command_loads_no_unused_numpy_module(argv):
    # numpy.random serves only the sampled kernel table and numpy.ma no command;
    # each costs about 10 ms of a cold process
    run_fresh("-c",
              "import sys\n"
              "from hbspace.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "loaded = [m for m in ('numpy.random', 'numpy.ma') if m in sys.modules]\n"
              "assert not loaded, loaded")


def test_kernel_sampled_table_is_pinned(capsys):
    # the seeded points of the default table, drawn from default_rng(seed)
    code, out, _ = run(["kernel", "--named", "rank1-half"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "k(0.4194+0.4170j, -0.0666+0.2713j) = 1.03377917465-0.0825850225514j",
        "k(-0.0727-0.0437j, -0.0604-0.0214j) = 1.00267534674+0.000548891780343j",
        "k(0.2716-0.6897j, -0.7669-0.3063j) = 0.864187586593+0.223603922881j",
        "k(-0.1352+0.5492j, -0.5722+0.3487j) = 1.10334936679-0.220442865018j",
        "k(0.2125-0.4659j, -0.5917-0.6030j) = 0.981759883511+0.230279560863j",
    ]


def test_norm_dirichlet_space_reports_membership(capsys):
    # both space types answer norm through membership: member, residual 0, and
    # the norm^2 c* G c of the closed-form Gram
    # G[j, k] = delta_jk + sum_a conj(a)^(j - m) a^(k - m) sum_{t < m} |a|^(2t), m = min(j, k)
    code, out, _ = run(["norm", "--named", "dirichlet-pair", "--coeffs", "0,1,0.5", "--json"],
                       capsys)
    assert code == 0
    assert "member: True" in out
    report = json.loads(out[out.index("{"):])
    assert report["member"] is True and report["residual"] == 0.0
    c = [0.0, 1.0, 0.5]
    target = 0.0
    for j in range(3):
        for k in range(3):
            m = min(j, k)
            g = float(j == k) + sum(a ** (j - m) * a ** (k - m) * sum(a ** (2 * t) for t in range(m))
                                    for a in (0.5, -0.5))
            target += c[j] * g * c[k]
    assert abs(report["norm"] ** 2 - target) <= 1e-12 * target


def test_embed_kernel_near_the_circle_is_exact(capsys):
    # ||k_lam||^2 = (2 - |lam|^2) / (2 (1 - |lam|^2)) = 250.6250625... at 0.999;
    # the kernel cut at the handle degree gave 14.780
    code, out, _ = run(["embed", "--named", "rank1-half", "--kernel-at", "0.999", "--json"],
                       capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    target = math.sqrt((2.0 - 0.999 ** 2) / (2.0 * (1.0 - 0.999 ** 2)))
    assert abs(report["norm"] - target) <= 1e-12 * target
    assert report["residual"] <= 1e-12


def test_norm_formula_refuses_a_cut_kernel(capsys):
    # norm-formula needs coefficients; the cut at the handle degree would drop
    # a tail of 1.8e2 against coefficients of size 1, so it exits 3
    code, _, err = run(["norm-formula", "--named", "rank1-half", "--kernel-at", "0.999",
                        "--quick"], capsys)
    assert code == 3
    assert "Taylor cut" in err


def test_embed_kernel_csv_lists_exact_coefficients(tmp_path, capsys):
    code, _, _ = run(["embed", "--named", "rank1-half", "--kernel-at", "0.5",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "embed.csv").read_text().splitlines()
    assert lines[1] == "k,f,f1_1"
    assert len(lines) == 2 + 1025  # coefficients 0..degree of f and f_1
