import os
import re

import numpy as np
import pytest

from patchdg import analysis, cli, eigensolve
from patchdg.assembly import FormConfig, assemble_laplace
from patchdg.cli import RunConfig, build_config, export_vtk, main
from patchdg.mesh import build_topology, generate_cube_tet, generate_square_tri, write_msh
from patchdg.reconstruction import build_space, interpolate
from test_batched_setup import loops, polygon_mesh
from test_mesh import MALFORMED, MSH_FIXTURE


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestSolveCommand:
    def test_solve_square(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "solve", "--problem", "laplace", "--mesh", "square:8",
            "--m", "2", "--k", "20", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "eigenvalues.csv")
        assert header == ["index", "value", "residual"]
        assert len(rows) == 20
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)
        assert abs(values[0] - 2.0) < 0.05

    def test_solve_writes_vtk(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "solve", "--mesh", "square:4", "--m", "1", "--k", "3",
            "--vtk", "2", "--output", str(out),
        ])
        assert code == 0
        assert (out / "eigenfunction_001.vtk").exists()
        assert (out / "eigenfunction_002.vtk").exists()

    def test_missing_mesh_file_exit_2_no_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--mesh", str(tmp_path / "nope.msh"), "--output", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mesh", "--config"])
    def test_unreadable_input_exit_2_no_artifacts(self, tmp_path, capsys, flag):
        # a directory stands for any path that exists but cannot be read as a file
        folder = tmp_path / "folder"
        folder.mkdir()
        given = [flag, str(folder)] + (["--mesh", "square:2"] if flag == "--config" else [])
        out = tmp_path / "run"
        assert main(["solve", "--m", "1", *given, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and str(folder) in err
        assert not out.exists()

    def test_numerical_failure_exit_3(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "solve", "--mesh", "square:4", "--m", "2", "--k", "3",
            "--eta", "1e-9", "--output", str(out),
        ])
        assert code == 3

    def test_bad_degree_exit_2(self, tmp_path):
        code = main(["solve", "--problem", "biharmonic", "--mesh", "square:4",
                     "--m", "1", "--output", str(tmp_path)])
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        # square:4 takes the dense path, square:16 the Lanczos path
        for mesh, m, k in (("square:4", "1", "5"), ("square:16", "2", "10")):
            a, b = tmp_path / mesh / "a", tmp_path / mesh / "b"
            for out in (a, b):
                assert main(["solve", "--mesh", mesh, "--m", m, "--k", k,
                             "--output", str(out)]) == 0
            assert (a / "eigenvalues.csv").read_bytes() == (b / "eigenvalues.csv").read_bytes()

    @pytest.mark.parametrize("mesh, m", [("cube:3", "5"), ("square:8", "7")])
    def test_unsupported_degree_exit_2_no_artifacts(self, tmp_path, mesh, m):
        out = tmp_path / "run"
        assert main(["solve", "--mesh", mesh, "--m", m, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--mesh", "square:64", "--m", "2", "--t", "2"],
        ["solve", "--mesh", "square:8", "--m", "2", "--t", "5"],
        ["convergence", "--mesh", "cube:2,4", "--problem", "biharmonic", "--m", "2",
         "--t", "9"],
    ])
    def test_patch_below_polynomial_dimension_exit_2(self, tmp_path, monkeypatch, capsys,
                                                     argv):
        # t < dim P^m (6 in 2D, 10 in 3D at m = 2) cannot fit any patch
        monkeypatch.setattr(cli, "build_space", lambda *a, **kw: pytest.fail("space built"))
        out = tmp_path / "run"
        assert main(argv + ["--output", str(out)]) == 2
        assert "patch size t" in capsys.readouterr().err
        assert not out.exists()

    def test_patch_of_polynomial_dimension_accepted(self):
        cfg = build_config(["solve", "--mesh", "square:2", "--m", "2", "--t", "6"])
        cli._check_degree(cfg, generate_square_tri(2))

    def test_mesh_file_input(self, tmp_path):
        mesh_path = tmp_path / "mesh.msh"
        mesh_path.write_text(write_msh(generate_square_tri(4)))
        out = tmp_path / "run"
        code = main(["solve", "--mesh", str(mesh_path), "--m", "1", "--k", "3",
                     "--output", str(out)])
        assert code == 0
        assert (out / "eigenvalues.csv").exists()

    def test_above_exact_diagnostic_printed(self, tmp_path, capsys):
        code = main(["solve", "--mesh", "square:8", "--m", "2", "--k", "5",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        assert "above-exact diagnostic" in capsys.readouterr().out

    def test_no_diagnostic_for_the_clamped_plate(self, tmp_path, capsys):
        # no exact spectrum is known for it, so there is nothing to compare
        code = main(["solve", "--problem", "biharmonic", "--bc", "clamped", "--mesh", "square:4",
                     "--m", "2", "--k", "3", "--output", str(tmp_path / "out")])
        assert code == 0
        assert "above-exact" not in capsys.readouterr().out


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mesh=square:4\nm=2\nk=3\nproblem=laplace\n# comment\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--k", "5", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out / "eigenvalues.csv")
        assert len(rows) == 5  # flag overrode k=3

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("meshes=square:4\n")
        assert main(["solve", "--config", str(cfg)]) == 2

    # a valid value per flag
    FLAG_VALUES = {"problem": "biharmonic", "bc": "simply_supported", "m": "3", "t": "20",
                   "mesh": "square:4,8", "k": "7", "target": "2", "eta": "6.5",
                   "alpha": "4", "beta": "3", "tol": "1e-8", "vtk": "2", "output": "elsewhere"}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_file_line_equals_flag(self, tmp_path, capsys, command):
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        assert flags == set(self.FLAG_VALUES) | {"config", "help"}
        mesh = "square:2,4" if command in ("convergence", "reliable", "source") else "square:2"
        for key, value in self.FLAG_VALUES.items():
            if command in ("solve", "mesh-info") and key == "mesh":
                value = "square:4"
            base = [] if key == "m" else ["--m", "2"]  # biharmonic needs m >= 2
            if key == "bc":
                base += ["--problem", "biharmonic"]
            if key != "mesh":
                base += ["--mesh", mesh]
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = {value}\n")
            from_flag = build_config([command, *base, f"--{key}", value])
            assert build_config([command, "--config", str(path), *base]) == from_flag, key
            applied = getattr(from_flag, key)
            assert applied == type(applied)(value), key

    @pytest.mark.parametrize("line, key", [
        ("config=other.cfg", "config"),
        ("config=", "config"),
        ("rate_threshold=2", "rate_threshold"),
        ("problem=foo", "problem"),
        ("m=two", "m"),
    ])
    def test_bad_file_lines_exit_2_before_mesh_work(self, tmp_path, monkeypatch, capsys,
                                                   line, key):
        monkeypatch.setattr(cli, "_load_mesh_one", lambda spec: pytest.fail("mesh loaded"))
        path = tmp_path / "run.cfg"
        path.write_text(f"mesh=square:4\n{line}\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", str(path), "--output", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_line_exit_2_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_load_mesh_one", lambda spec: pytest.fail("mesh loaded"))
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mesh=square:4\r\n# comment\nm=1\xff\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config file {path}, line 3: byte 0xff is not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "file"])
    def test_abbreviation_exit_2(self, tmp_path, monkeypatch, capsys, how):
        # a prefix of --mesh is not --mesh, neither on the command line nor as a key
        monkeypatch.setattr(cli, "_load_mesh_one", lambda spec: pytest.fail("mesh loaded"))
        path = tmp_path / "run.cfg"
        path.write_text("me=square:2\n")
        out = tmp_path / "run"
        given = ["--me", "square:2"] if how == "flag" else ["--config", str(path)]
        assert main(["solve", *given, "--output", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_run_config_is_a_form_config(self):
        assert not set(RunConfig.__annotations__) & set(FormConfig.__annotations__)
        cfg = build_config(["solve", "--mesh", "square:4", "--m", "2", "--eta", "7"])
        assert isinstance(cfg, FormConfig)
        assert cfg.bc == "homogeneous_dirichlet"
        square = generate_square_tri(4)
        space = build_space(square, build_topology(square), 2)
        expected = assemble_laplace(space, FormConfig(m=2, eta=7.0))
        assert (assemble_laplace(space, cfg) != expected).nnz == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--mesh", "square:abc"],
        ["solve", "--mesh", "square:0"],
        ["solve", "--mesh", "square:4", "--problem", "laplace", "--bc", "clamped"],
        ["convergence", "--mesh", "square:4"],
        ["convergence", "--mesh", "square:4,12", "--m", "1"],
        *([cmd, "--problem", "biharmonic", "--bc", "clamped", "--mesh", "square:4,8", "--m", "2"]
          for cmd in ("convergence", "source", "reliable")),
        ["solve", "--mesh", "square:4", "--t", "0"],
        ["solve", "--mesh", "square:4", "--tol", "0"],
        ["source", "--mesh", "square:4,12", "--m", "1"],
        ["reliable", "--mesh", "square:4,12", "--m", "1"],
        ["convergence", "--mesh", "square:4,8", "--m", "1", "--target", "0"],
        ["solve", "--mesh", "square:4", "--vtk", "-3"],
        ["solve", "--mesh", "square:4", "--output", __file__],  # a file, not a directory
        ["solve", "--mesh", "square:4", "--output", os.path.join(__file__, "sub")],  # under a file
    ])
    def test_bad_values_exit_2_before_mesh_work(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(cli, "_load_mesh_one", lambda spec: pytest.fail("mesh loaded"))
        out = tmp_path / "run"
        assert main([argv[0], "--output", str(out), *argv[1:]]) == 2  # argv's own --output wins
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["convergence", "--mesh", "square:2,4", "--m", "1", "--target", "10"],
        ["solve", "--mesh", "square:4", "--m", "1", "--k", "20"],
    ])
    def test_late_value_error_exit_2_no_artifacts(self, tmp_path, monkeypatch, capsys, argv):
        # square:2 holds 8 pairs, fewer than target 10 needs; square:4 has
        # 32 elements, past a lowered dense-path limit
        monkeypatch.setattr(eigensolve, "DENSE_THRESHOLD", 16)
        out = tmp_path / "run"
        assert main(argv + ["--output", str(out)]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unservable_solve_exit_2_before_the_space(self, tmp_path, monkeypatch, capsys):
        # square:64 has 8192 elements; k = 2049 > 8192 // 4 takes the dense path
        monkeypatch.setattr(cli, "build_topology", lambda mesh: pytest.fail("topology built"))
        monkeypatch.setattr(cli, "build_space", lambda *a, **kw: pytest.fail("space built"))
        out = tmp_path / "run"
        argv = ["solve", "--mesh", "square:64", "--m", "2", "--k", "2049", "--output", str(out)]
        assert main(argv) == 2
        limit = eigensolve.DENSE_THRESHOLD
        assert (f"configuration error: dense path limited to n <= {limit}, got 8192"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--mesh", "square:4", "--threads", "2"],
        ["solve", "--mesh", "square:4", "--rate-threshold", "2"],
        ["solve", "--mesh", "square:4", "--m", "x"],
    ])
    def test_usage_errors_return_2_no_artifacts(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert main(argv + ["--output", str(out)]) == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_help_returns_0(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "--mesh" in capsys.readouterr().out


class TestConvergenceCommand:
    def test_errors_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "convergence", "--problem", "laplace", "--mesh", "square:4,8",
            "--m", "1", "--target", "1", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "errors.csv")
        assert header == ["scale", "value", "error", "order"]
        assert len(rows) == 2
        assert rows[0][3] == ""  # no order on the first row
        assert float(rows[1][3]) > 0.5
        assert (out / "errors_eigenfunction.csv").exists()


class TestReliableCommand:
    def test_reliable_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "reliable", "--problem", "laplace", "--mesh", "square:4,8",
            "--m", "1", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "reliable.csv")
        assert header == ["N", "count", "percentage"]
        assert len(rows) == 1
        n, count, pct = int(rows[0][0]), int(rows[0][1]), float(rows[0][2])
        assert n == 128
        assert 0 <= count <= n
        assert abs(pct - 100.0 * count / n) < 1e-9

    def test_dense_limit_exit_2_before_any_space(self, tmp_path, monkeypatch, capsys):
        # every spectrum is dense; square:64 has 8192 elements
        monkeypatch.setattr(analysis, "build_space", lambda *a, **kw: pytest.fail("space built"))
        out = tmp_path / "run"
        assert main(["reliable", "--mesh", "square:32,64", "--m", "1", "--output", str(out)]) == 2
        limit = eigensolve.DENSE_THRESHOLD
        assert f"dense path limited to n <= {limit}, got 8192" in capsys.readouterr().err
        assert not out.exists()


class TestSourceCommand:
    def test_source_errors_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "source", "--problem", "laplace", "--mesh", "square:4,8",
            "--m", "2", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "errors.csv")
        assert header == ["scale", "value", "error", "order"]
        errs = [float(r[2]) for r in rows]
        assert errs[1] < errs[0]


class TestMeshInfo:
    def test_prints_stats(self, tmp_path, capsys):
        code = main(["mesh-info", "--mesh", "square:4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "elements:         32" in out
        assert "vertices:         25" in out

    @pytest.mark.parametrize("name, text", [
        ("dangling.poly", "4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 9\n"),
        ("clockwise.poly", "4 1\n0 0\n1 0\n1 1\n0 1\n4 3 2 1 0\n"),
        ("nonfinite.poly", "4 1\n0 0\n1 0\n1 inf\n0 1\n4 0 1 2 3\n"),
        ("version.msh", MSH_FIXTURE.replace("2.2 0 8", "4.1 0 8")),
        ("mixed.msh", MSH_FIXTURE.replace("3 2 2 0 1 1 3 4", "3 4 2 0 1 1 2 3 4")),
        ("duplicate.msh", MSH_FIXTURE.replace("4\n1 0 0 0", "5\n1 0 0 0").replace(
            "4 0 1 0\n", "4 0 1 0\n3 5 5 0\n")),
        *MALFORMED.items(),
    ], ids=["dangling", "clockwise", "nonfinite", "version", "mixed", "duplicate", *MALFORMED])
    def test_mesh_file_defects_exit_2_no_artifacts(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "run"
        for argv in (["mesh-info"], ["solve", "--m", "1", "--output", str(out)]):
            assert main(argv + ["--mesh", str(path)]) == 2
            assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()


class TestFamilyTable:
    @pytest.fixture()
    def half(self, monkeypatch):
        # [0, pi/2]^2: wave pi / side = 2 and L2 amplitude 2 / side, so exact lambda_1 = 8
        monkeypatch.setitem(analysis.FAMILIES, "half", analysis.Family(
            lambda n: generate_square_tri(n, side=np.pi / 2), "half_pi", (2, 2.0, 4 / np.pi)))

    def test_solve(self, half, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--mesh", "half:8", "--m", "2", "--k", "5", "--output", str(out)]) == 0
        assert "above-exact diagnostic (first 5): all above" in capsys.readouterr().out
        _, rows = read_csv(out / "eigenvalues.csv")
        assert 8.0 < float(rows[0][1]) < 8.1

    def test_convergence(self, half, tmp_path):
        out = tmp_path / "run"
        assert main(["convergence", "--mesh", "half:4,8", "--m", "2", "--output", str(out)]) == 0
        _, rows = read_csv(out / "errors.csv")
        values, errors = ([float(r[j]) for r in rows] for j in (1, 2))
        assert errors == pytest.approx([abs(v - 8.0) / 8.0 for v in values], rel=1e-9)
        assert errors[1] < errors[0] / 8

    def test_sizes_that_do_not_double_exit_2_before_mesh_work(self, half, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(cli, "_load_mesh_one", lambda spec: pytest.fail("mesh loaded"))
        out = tmp_path / "run"
        assert main(["convergence", "--mesh", "half:4,12", "--m", "2", "--output", str(out)]) == 2
        assert "must double" in capsys.readouterr().err
        assert not out.exists()

    def test_help_and_refusal_name_the_row(self, half, capsys):
        assert main(["solve", "--help"]) == 0
        assert "half:n" in capsys.readouterr().out
        assert main(["convergence", "--mesh", "a.msh,b.msh"]) == 2
        assert "square:/cube:/half: meshes" in capsys.readouterr().err


class TestVtkExport:
    @pytest.fixture()
    def space(self):
        mesh = generate_square_tri(4)
        return build_space(mesh, build_topology(mesh), 1)

    def test_constant_field(self, tmp_path, space):
        path = tmp_path / "f.vtk"
        export_vtk(space.mesh, space, np.ones(space.num_dofs), path)
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        start = text.index("LOOKUP_TABLE default") + 1
        n_pts = 3 * space.mesh.num_elements
        values = [float(v) for v in text[start:start + n_pts]]
        assert np.allclose(values, 1.0, atol=1e-10)

    def test_linear_field_matches_vertices(self, tmp_path, space):
        data = interpolate(space, lambda x, y: x)
        path = tmp_path / "x.vtk"
        export_vtk(space.mesh, space, data, path)
        text = path.read_text().splitlines()
        i_pts = text.index("POINTS %d double" % (3 * space.mesh.num_elements)) + 1
        coords = [list(map(float, text[i_pts + k].split())) for k in range(3 * space.mesh.num_elements)]
        start = text.index("LOOKUP_TABLE default") + 1
        values = [float(v) for v in text[start:start + len(coords)]]
        for c, v in zip(coords, values):
            assert abs(v - c[0]) < 1e-10

    def test_cell_types_and_counts(self, tmp_path, space):
        path = tmp_path / "t.vtk"
        export_vtk(space.mesh, space, np.zeros(space.num_dofs), path)
        text = path.read_text().splitlines()
        nc = space.mesh.num_elements
        i_types = text.index(f"CELL_TYPES {nc}") + 1
        types = {int(t) for t in text[i_types:i_types + nc]}
        assert types == {5}  # triangles
        i_cd = text.index(f"CELL_DATA {nc}")
        assert i_cd > 0

    def test_wrong_length_rejected(self, tmp_path, space):
        with pytest.raises(ValueError):
            export_vtk(space.mesh, space, np.ones(3), tmp_path / "b.vtk")


def reference_vtk(mesh, space, vector):
    """The per-element VTK writer that the array-built one replaced."""
    fmt = lambda x: f"{x:.12g}"
    elements = loops(mesh)
    width = max(len(el) for el in elements)
    padded = np.array([el + el[:1] * (width - len(el)) for el in elements])
    vals = space.evaluate(vector, np.arange(mesh.num_elements), mesh.vertices[padded])
    points, cells, types, pdata = [], [], [], []
    for K, el in enumerate(elements):
        start = len(points)
        for c, v in zip(mesh.vertices[list(el)], vals[K]):
            points.append(list(c) + [0.0] * (3 - mesh.dim))
            pdata.append(float(v))
        cells.append([len(el)] + list(range(start, start + len(el))))
        types.append(7 if mesh.element_kind == "polygon" else 5 if mesh.dim == 2 else 10)
    out = ["# vtk DataFile Version 3.0", "patchdg reconstructed field", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    out += [" ".join(fmt(c) for c in p) for p in points]
    out.append(f"CELLS {len(cells)} {sum(len(c) for c in cells)}")
    out += [" ".join(str(i) for i in c) for c in cells]
    out.append(f"CELL_TYPES {len(cells)}")
    out += [str(t) for t in types]
    out += [f"POINT_DATA {len(points)}", "SCALARS reconstructed double 1", "LOOKUP_TABLE default"]
    out += [fmt(v) for v in pdata]
    out += [f"CELL_DATA {len(cells)}", "SCALARS sample double 1", "LOOKUP_TABLE default"]
    out += [fmt(v) for v in vector]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("make_mesh", [lambda: generate_square_tri(4),
                                       lambda: generate_cube_tet(2), polygon_mesh],
                         ids=["square:4", "cube:2", "polygon"])
def test_vtk_matches_per_element_writer(tmp_path, make_mesh):
    # the polygon mesh mixes triangles and quads, so its loops are padded
    mesh = make_mesh()
    space = build_space(mesh, build_topology(mesh), 2)
    vector = np.random.default_rng(5).standard_normal(mesh.num_elements)
    vector[:3] = [0.0, -0.0, 1e-300]
    path = tmp_path / "f.vtk"
    export_vtk(mesh, space, vector, path)
    assert path.read_bytes() == reference_vtk(mesh, space, vector).encode()


class TestAtomicWrites:
    HEADER = ["index", "value", "residual"]

    def test_failed_formatting_keeps_old_csv(self, tmp_path):
        path = tmp_path / "eigenvalues.csv"
        cli._write_csv(path, self.HEADER, [(1, 2.0, 0.0)])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_csv(path, self.HEADER, [(1, 2.5, 0.0), (2, object(), 0.0)])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("artifact", ["eigenvalues.csv", "eigenfunction_001.vtk"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, artifact):
        path = tmp_path / artifact
        mesh = generate_square_tri(2)
        space = build_space(mesh, build_topology(mesh), 1)

        def write(values):
            if artifact.endswith(".csv"):
                cli._write_csv(path, self.HEADER, [(i + 1, v, 0.0) for i, v in enumerate(values)])
            else:
                export_vtk(mesh, space, values, path)

        write(np.zeros(mesh.num_elements))
        before = path.read_bytes()

        class DiskFull:
            """A file that takes the first bytes of a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:20])
                raise OSError(28, "No space left on device")

        real_open = open
        monkeypatch.setattr(cli, "open", lambda *a, **kw: DiskFull(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            write(np.ones(mesh.num_elements))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
