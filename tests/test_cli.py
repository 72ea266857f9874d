import csv
import json

import pytest

import twogridfem.cli as cli
import twogridfem.twogrid as twogrid
from twogridfem.cli import main

MANUFACTURED_CFG = """
[problem]
name = manufactured
d_inside = 10
d_outside = 1

[levels]
coarsest_n = 4
count = 3

[solver]
newton_abs_tol = 1e-10
quad_degree = 5

[output]
out_dir = {out}
"""

POWER11_CFG = """
[problem]
name = power11

[geometry]
domain = -1 1 -1 1
box = -0.5 0.5 -0.5 0.5

[levels]
coarsest_n = 8
count = 3

[twogrid]
s = 2
tau = 2
snap = up

[output]
out_dir = {out}
"""

LINEAR_CFG = """
[problem]
name = linear_reaction
c = 1.0
f = 1.0

[levels]
coarsest_n = 4
count = 3

[output]
out_dir = {out}
"""


WIDE_CFG = """
[problem]
name = linear_reaction

[geometry]
domain = 0 2 0 1
box = 0.5 1.5 0.25 0.75

[levels]
coarsest_n = 8
count = 2

[output]
out_dir = {out}
"""


def write_cfg(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_check_mesh_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER11_CFG)
    assert main(["check-mesh", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "level" in out and "yes" in out


def test_check_mesh_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER11_CFG)
    assert main(["check-mesh", "--config", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert len(payload["levels"]) == 3


def test_unaligned_interface_is_config_error(tmp_path, capsys):
    bad = POWER11_CFG.replace("coarsest_n = 8", "coarsest_n = 6")
    cfg = write_cfg(tmp_path, bad)
    assert main(["check-mesh", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_problem_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER11_CFG.replace("power11", "warp_drive"))
    assert main(["converge", "--config", cfg]) == 2


def test_missing_config_file():
    assert main(["converge", "--config", "/nonexistent/study.cfg"]) == 2


@pytest.mark.parametrize("key, old, new", [
    pytest.param("newton_max_iters", "quad_degree = 5",
                 "quad_degree = 5\nnewton_max_iters = 0",
                 id="newton_max_iters"),
    pytest.param("quad_degree", "quad_degree = 5", "quad_degree = -3",
                 id="quad_degree"),
    pytest.param("coarsest_n", "coarsest_n = 4", "coarsest_n = 1",
                 id="coarsest_n"),
])
def test_out_of_range_setting_is_config_error(tmp_path, capsys, key, old,
                                              new):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG.replace(old, new))
    assert main(["converge", "--config", cfg]) == 2
    assert f"config error: {key}" in capsys.readouterr().err


def test_converge_writes_csv_with_schema(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG)
    assert main(["converge", "--config", cfg]) == 0
    rows = read_csv(tmp_path / "out" / "converge.csv")
    assert rows[0] == ["level", "h", "n_dof", "err_energy", "err_l2",
                       "err_l4", "eoc_energy", "eoc_l2", "eoc_l4",
                       "newton_iters", "wall_ms"]
    assert len(rows) == 4  # header + 3 levels
    assert rows[1][6] == ""  # first level has no rate
    assert float(rows[3][6]) == pytest.approx(1.0, abs=0.2)
    assert float(rows[3][7]) == pytest.approx(2.0, abs=0.3)
    assert all(float(row[10]) > 0 for row in rows[1:])  # unseeded timings
    assert (tmp_path / "out" / "converge.dat").exists()


def test_converge_single_level_empty_eoc(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG)
    assert main(["converge", "--config", cfg, "--levels", "1"]) == 0
    rows = read_csv(tmp_path / "out" / "converge.csv")
    assert len(rows) == 2
    assert rows[1][6] == rows[1][7] == rows[1][8] == ""


def test_converge_reference_shares_the_study_chain(tmp_path, monkeypatch):
    # power11 has no exact solution: the two reference levels extend the
    # study chain, so each level is solved once
    solved = []
    solve = twogrid.newton_solve

    def counting_solve(mesh, *args, **kwargs):
        solved.append(mesh.n_vertices)
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(twogrid, "newton_solve", counting_solve)
    monkeypatch.setattr(cli, "newton_solve", counting_solve)
    cfg = write_cfg(tmp_path, POWER11_CFG)
    assert main(["converge", "--config", cfg, "--levels", "2"]) == 0
    assert solved == [9 ** 2, 17 ** 2, 33 ** 2, 65 ** 2]
    assert len(read_csv(tmp_path / "out" / "converge.csv")) == 3


def test_converge_deterministic_with_seed(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG)
    assert main(["converge", "--config", cfg, "--seed", "0"]) == 0
    first = (tmp_path / "out" / "converge.csv").read_bytes()
    assert main(["converge", "--config", cfg, "--seed", "0"]) == 0
    second = (tmp_path / "out" / "converge.csv").read_bytes()
    assert first == second


def test_twogrid_linear_reaction_ratio_one(tmp_path):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    assert main(["twogrid", "--config", cfg, "--seed", "1"]) == 0
    rows = read_csv(tmp_path / "out" / "twogrid.csv")
    assert rows[0] == ["h", "H", "err_energy_direct", "err_energy_twogrid",
                       "ratio", "coarse_newton_iters", "fine_linear_iters",
                       "wall_ms_direct", "wall_ms_twogrid"]
    assert len(rows) == 3  # two fine levels (coarsest has no partner)
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(1.0, abs=1e-6)
        assert row[7] == "0.000" and row[8] == "0.000"  # seeded timings


def test_twogrid_selects_coarse_level(tmp_path):
    cfg = write_cfg(tmp_path, POWER11_CFG)
    assert main(["twogrid", "--config", cfg, "--seed", "1"]) == 0
    rows = read_csv(tmp_path / "out" / "twogrid.csv")
    for row in rows[1:]:
        assert float(row[1]) >= float(row[0])  # H at least as coarse as h


def test_twogrid_spacing_on_non_square_cells(tmp_path):
    # 0.25 x 0.125 cells on the coarsest level: h and H are x-spacings
    cfg = write_cfg(tmp_path, WIDE_CFG)
    assert main(["twogrid", "--config", cfg, "--seed", "0"]) == 0
    rows = read_csv(tmp_path / "out" / "twogrid.csv")
    assert [(float(r[0]), float(r[1])) for r in rows[1:]] == [(0.125, 0.25)]


def test_solve_writes_nodal_values(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG)
    assert main(["solve", "--config", cfg, "--levels", "2"]) == 0
    lines = (tmp_path / "out" / "solution.txt").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) - 1 == 9 * 9  # coarsest n=4, one refinement -> n=8


def test_quad_degree_override_runs(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED_CFG)
    assert main(["converge", "--config", cfg, "--levels", "2",
                 "--quad-degree", "7"]) == 0


def test_bad_snap_flag_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER11_CFG.replace("snap = up",
                                                  "snap = sideways"))
    assert main(["twogrid", "--config", cfg]) == 2
