import contextlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vibronic.cli import main
from vibronic.fixtures import pentacene_like_8
from vibronic.io import (
    SPECTRUM_HEADER,
    MoleculeFileError,
    SpectrumFileError,
    read_molecule,
    read_spectrum,
    write_molecule,
    provenance_lines,
    write_spectrum,
)
from vibronic.sos import LineSpectrum


@pytest.fixture
def molecule_path(tmp_path):
    path = tmp_path / "mol.json"
    write_molecule(pentacene_like_8(), path)
    return path


def write_json(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestMoleculeFile:
    def test_round_trip(self, tmp_path, molecule_path):
        m = read_molecule(molecule_path)
        assert m.name == "pentacene-like-8"
        assert m.n_modes == 8
        assert m.modes[6].huang_rhys == 0.25

    def test_gradient_form(self, tmp_path):
        path = write_json(tmp_path, {
            "name": "g", "e00_cm1": 0.0, "transition": "absorption",
            "modes": [{"energy_cm1": 500.0, "omega": 2.0, "gradient": 2.0}],
        })
        m = read_molecule(path)
        assert m.modes[0].huang_rhys == pytest.approx(1.0)

    def test_both_forms_rejected_naming_mode(self, tmp_path):
        path = write_json(tmp_path, {
            "name": "b", "e00_cm1": 0.0, "transition": "absorption",
            "modes": [
                {"energy_cm1": 500.0, "huang_rhys": 0.1},
                {"energy_cm1": 600.0, "huang_rhys": 0.1, "omega": 1.0, "gradient": 1.0},
            ],
        })
        with pytest.raises(MoleculeFileError, match="mode 2"):
            read_molecule(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_json(tmp_path, {
            "name": "u", "e00_cm1": 0.0, "transition": "absorption",
            "modes": [], "comment": "nope",
        })
        with pytest.raises(MoleculeFileError, match="comment"):
            read_molecule(path)

    def test_unknown_mode_key(self, tmp_path):
        path = write_json(tmp_path, {
            "name": "u", "e00_cm1": 0.0, "transition": "absorption",
            "modes": [{"energy_cm1": 500.0, "huang_rhys": 0.1, "label": "x"}],
        })
        with pytest.raises(MoleculeFileError, match="label"):
            read_molecule(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MoleculeFileError):
            read_molecule(path)

    @pytest.mark.parametrize("field", ["e00_cm1", "energy_cm1", "huang_rhys",
                                       "omega", "gradient"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [1.0]])
    def test_non_number_rejected(self, tmp_path, field, value):
        mode = ({"energy_cm1": 500.0, "omega": 2.0, "gradient": 2.0}
                if field in ("omega", "gradient") else
                {"energy_cm1": 500.0, "huang_rhys": 0.1})
        doc = {"name": "t", "e00_cm1": 0.0, "transition": "absorption", "modes": [mode]}
        if field == "e00_cm1":
            doc[field] = value
        else:
            mode[field] = value
        path = write_json(tmp_path, doc)
        with pytest.raises(MoleculeFileError, match=field):
            read_molecule(path)
        assert main(["sos", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("value", ["36", 36.0, True, None])
    def test_non_integer_atom_count_rejected(self, tmp_path, value):
        path = write_json(tmp_path, {
            "name": "a", "e00_cm1": 0.0, "transition": "absorption",
            "atom_count": value, "modes": [{"energy_cm1": 500.0, "huang_rhys": 0.1}],
        })
        with pytest.raises(MoleculeFileError, match="atom_count"):
            read_molecule(path)
        assert main(["sample", str(path), "--events", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_integer_numbers_accepted(self, tmp_path):
        path = write_json(tmp_path, {
            "name": "i", "e00_cm1": 18650, "transition": "absorption", "atom_count": 3,
            "modes": [{"energy_cm1": 500, "huang_rhys": 1}],
        })
        m = read_molecule(path)
        assert (m.e00, m.modes[0].energy, m.modes[0].huang_rhys) == (18650.0, 500.0, 1.0)

    def test_out_of_float_range_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"name": "b", "e00_cm1": 1' + "0" * 400 + ', '
                        '"transition": "absorption", "modes": []}', encoding="utf-8")
        with pytest.raises(MoleculeFileError, match="e00_cm1"):
            read_molecule(path)

    def test_modes_must_be_list(self, tmp_path):
        path = write_json(tmp_path, {"name": "l", "e00_cm1": 0.0,
                                     "transition": "absorption", "modes": 3})
        with pytest.raises(MoleculeFileError, match="list"):
            read_molecule(path)


class TestSpectrumFile:
    def test_round_trip_byte_identity(self, tmp_path):
        spec = LineSpectrum(
            np.array([0.0, 500.0, 1000.0 / 3.0 * 3.0, 1264.0]),
            np.array([0.778800783071405, 0.1947001957678512, 1e-300, 0.25]),
            provenance={"molecule": "x", "engine": "sos"},
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_spectrum(spec, p1)
        again = read_spectrum(p1)
        write_spectrum(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_provenance_lines(self):
        prov = {"molecule": "x", "comments": ["# engine: sos", "#raw"], "fwhm": 30.0}
        assert provenance_lines(prov) == ["# engine: sos", "#raw", "# molecule: x",
                                          "# fwhm: 30.0"]

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "a\x85b"])
    def test_multiline_value_refused(self, tmp_path, name):
        # the file would not read back: refused before anything is written
        path = write_json(tmp_path, {"name": name, "e00_cm1": 0.0, "transition": "absorption",
                                     "modes": [{"energy_cm1": 100.0, "huang_rhys": 0.1}]})
        out = tmp_path / "o.csv"
        assert main(["sos", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_header_is_provenance(self, tmp_path):
        spec = LineSpectrum([0.0], [1.0], provenance={"engine": "sos", "fc_prune": None})
        path = tmp_path / "p.csv"
        write_spectrum(spec, path)
        assert path.read_text(encoding="utf-8") == (
            f"# engine: sos\n# fc_prune: None\n{SPECTRUM_HEADER}\n0.0,1.0\n")

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("energy,intensity\n0,1\n", encoding="utf-8")
        with pytest.raises(SpectrumFileError, match="header"):
            read_spectrum(path)

    def test_monotone_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("energy_cm1,intensity\n500.0,1.0\n0.0,1.0\n", encoding="utf-8")
        with pytest.raises(SpectrumFileError, match="increasing"):
            read_spectrum(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("energy_cm1,intensity\n", encoding="utf-8")
        with pytest.raises(SpectrumFileError, match="no data"):
            read_spectrum(path)

    @pytest.mark.parametrize("row", ["0.0,inf", "nan,1.0", "-inf,1.0", "0.0,nan", "1e400,1.0"])
    def test_non_finite_rejected(self, tmp_path, row):
        path = tmp_path / "n.csv"
        path.write_text(f"energy_cm1,intensity\n{row}\n", encoding="utf-8")
        with pytest.raises(SpectrumFileError, match=":2: values must be finite"):
            read_spectrum(path)


class TestCliSos:
    def test_k1_enumeration(self, tmp_path, molecule_path, capsys):
        out = tmp_path / "ref.csv"
        code = main(["sos", str(molecule_path), "--max-quanta", "1",
                     "--out", str(out)])
        assert code == 0
        assert "states: 256" in capsys.readouterr().out
        assert len(read_spectrum(out)) > 1

    def test_k0_single_stick(self, tmp_path, molecule_path):
        out = tmp_path / "ref.csv"
        assert main(["sos", str(molecule_path), "--max-quanta", "0",
                     "--out", str(out)]) == 0
        spec = read_spectrum(out)
        assert len(spec) == 1
        assert spec.energies[0] == 18650.0

    def test_budget_exceeded_exit_3(self, tmp_path):
        # 4 incommensurate modes, S ~ 50, K = 100: no sticks merge, so
        # the fourth convolution step would hold ~1e6 x 101 terms
        m = {
            "name": "big", "e00_cm1": 0.0, "transition": "absorption",
            "modes": [{"energy_cm1": e, "huang_rhys": s} for e, s in
                      [(100.0, 50.0), (141.421356, 49.0), (173.205081, 51.0),
                       (223.606798, 50.5)]],
        }
        path = write_json(tmp_path, m)
        assert main(["sos", str(path), "--max-quanta", "100",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_deterministic_bytes(self, tmp_path, molecule_path, monkeypatch):
        # SOS draws nothing, so no seed (given or drawn) enters its output
        monkeypatch.delenv("VIBRONIC_SEED", raising=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sos", str(molecule_path), "--max-quanta", "2",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        comments = read_spectrum(a).provenance["comments"]
        assert comments[-1] == "# normalization: raw"
        assert not any(c.startswith("# seed:") for c in comments)

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope", encoding="utf-8")
        assert main(["sos", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


class TestCliSample:
    def test_seed_reproducibility_bytes(self, tmp_path, molecule_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample", str(molecule_path), "--events", "20000", "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_event(self, tmp_path, molecule_path):
        out = tmp_path / "one.csv"
        assert main(["sample", str(molecule_path), "--events", "1",
                     "--seed", "5", "--out", str(out)]) == 0
        spec = read_spectrum(out)
        assert len(spec) == 1
        assert spec.intensities[0] == 1.0


class TestCliFidelity:
    def test_self_fidelity(self, tmp_path, molecule_path, capsys):
        out = tmp_path / "s.csv"
        main(["sample", str(molecule_path), "--events", "5000",
              "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert main(["fidelity", str(out), str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_disjoint(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("energy_cm1,intensity\n0.0,1.0\n", encoding="utf-8")
        b.write_text("energy_cm1,intensity\n500.0,1.0\n", encoding="utf-8")
        assert main(["fidelity", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n", encoding="utf-8")
        assert main(["fidelity", str(bad), str(bad)]) == 2

    def test_infinite_intensity_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("energy_cm1,intensity\n0.0,inf\n", encoding="utf-8")
        assert main(["fidelity", str(a), str(a)]) == 2
        assert capsys.readouterr().out == ""

    def test_huge_and_tiny_intensities(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("energy_cm1,intensity\n0.0,1e308\n500.0,1e308\n", encoding="utf-8")
        b.write_text("energy_cm1,intensity\n0.0,5e-324\n500.0,5e-324\n", encoding="utf-8")
        for norm in ("l2", "bhattacharyya"):
            assert main(["fidelity", str(a), str(b), "--norm", norm]) == 0
            assert capsys.readouterr().out.strip() == "1.000000"


class TestCliBroaden:
    def test_lorentzian_profile(self, tmp_path, molecule_path):
        ref = tmp_path / "ref.csv"
        main(["sos", str(molecule_path), "--max-quanta", "1", "--out", str(ref)])
        out = tmp_path / "broad.csv"
        svg = tmp_path / "broad.svg"
        assert main(["broaden", str(ref), "--shape", "lorentzian",
                     "--fwhm", "30", "--out", str(out), "--svg", str(svg)]) == 0
        spec = read_spectrum(out)
        assert len(spec) > 100
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_grid_violation_exit_4(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("energy_cm1,intensity\n0.0,1.0\n", encoding="utf-8")
        assert main(["broaden", str(a), "--fwhm", "30",
                     "--grid", "100:0:1", "--out", str(tmp_path / "o.csv")]) == 4

    def test_empty_input_exit_2(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("energy_cm1,intensity\n", encoding="utf-8")
        assert main(["broaden", str(a), "--fwhm", "30",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_nan_row_exit_2(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("energy_cm1,intensity\nnan,1.0\n", encoding="utf-8")
        assert main(["broaden", str(a), "--fwhm", "30",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_source_provenance_carried(self, tmp_path, molecule_path):
        src = tmp_path / "s.csv"
        assert main(["sample", str(molecule_path), "--events", "1000",
                     "--seed", "42", "--out", str(src)]) == 0
        out = tmp_path / "b.csv"
        assert main(["broaden", str(src), "--fwhm", "30", "--out", str(out)]) == 0
        source_comments = read_spectrum(src).provenance["comments"]
        comments = read_spectrum(out).provenance["comments"]
        assert comments[: len(source_comments)] == source_comments
        assert "# seed: 42" in comments
        assert comments[len(source_comments):][0] == "# broadening: lorentzian"


def test_cli_output_round_trip(tmp_path, molecule_path):
    # every spectrum the CLI writes is read and written back byte for byte
    outs = [tmp_path / n for n in ("sos.csv", "sample.csv", "band.csv")]
    assert main(["sos", str(molecule_path), "--max-quanta", "2", "--normalize",
                 "zero_zero_one", "--out", str(outs[0])]) == 0
    assert main(["sample", str(molecule_path), "--events", "2000", "--seed", "4",
                 "--out", str(outs[1])]) == 0
    assert main(["broaden", str(outs[1]), "--fwhm", "30", "--out", str(outs[2])]) == 0
    for path in outs:
        again = tmp_path / f"again-{path.name}"
        write_spectrum(read_spectrum(path), again)
        assert again.read_bytes() == path.read_bytes(), path.name


class TestCliSeed:
    @pytest.mark.parametrize("argv", [
        ["hr", "--omega", "2", "--gradient", "2"],
        ["fidelity", "a.csv", "b.csv"],
        ["broaden", "a.csv", "--fwhm", "30", "--out", "o.csv"],
        ["sos", "m.json", "--out", "o.csv"],
    ])
    def test_seed_only_where_it_acts(self, argv):
        with pytest.raises(SystemExit) as err, contextlib.redirect_stderr(io.StringIO()):
            main(argv + ["--seed", "1"])
        assert err.value.code == 2


def well_typed_doc(e00, energy, hr):
    return st.fixed_dictionaries(
        {
            "name": st.text(max_size=4),
            "e00_cm1": e00,
            "transition": st.sampled_from(["absorption", "emission"]),
            "modes": st.lists(st.fixed_dictionaries({"energy_cm1": energy, "huang_rhys": hr}),
                              max_size=8),
        },
        optional={"atom_count": st.integers(-2, 40)},
    )


# Plausible molecules, valid molecules with extreme numbers, any
# floats at all, and documents with arbitrary values in any field.
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.integers(),
                 st.floats(), st.lists(st.integers(), max_size=2))
any_mode = st.one_of(
    junk,
    st.dictionaries(st.sampled_from(["energy_cm1", "huang_rhys", "omega", "gradient", "x"]),
                    st.one_of(st.floats(-1.0, 5.0), junk), max_size=4),
)
junk_doc = st.fixed_dictionaries(
    {
        "name": junk,
        "e00_cm1": st.one_of(st.floats(0.0, 40000.0), junk),
        "transition": st.one_of(st.sampled_from(["absorption", "emission"]), junk),
        "modes": st.one_of(st.lists(any_mode, max_size=8), junk),
    },
    optional={"atom_count": junk, "extra": junk},
)
molecule_doc = st.one_of(
    well_typed_doc(st.floats(0.0, 40000.0), st.floats(1.0, 3000.0), st.floats(0.0, 3.0)),
    well_typed_doc(st.floats(0.0, 1e300), st.floats(1e-300, 1e300), st.floats(0.0, 1e300)),
    well_typed_doc(st.floats(), st.floats(), st.floats()),
    junk_doc,
)


@given(doc=molecule_doc, command=st.sampled_from(["sos", "sample"]),
       k=st.integers(0, 3), events=st.integers(1, 1000),
       overflow=st.sampled_from(["truncate", "cap"]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_molecule_json_exit_codes(doc, command, k, events, overflow):
    """Any molecule JSON gives a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path), "--max-quanta", str(k), "--out", str(Path(tmp) / "o.csv")]
        argv += (["--overflow", overflow] if command == "sos"
                 else ["--events", str(events), "--seed", "1"])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3, 4)


# Spectrum CSV bodies: well-formed files on a few shared energies,
# some with one row of float extremes or non-finite values, and files
# of junk text in rows, headers and comments.
extreme = st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
shared = st.integers(-3, 3).map(lambda n: 500.0 * n)
finite_rows = st.lists(st.tuples(st.one_of(shared, st.floats(-1e4, 1e4)), st.floats(0.0, 1e4)),
                       min_size=1, max_size=5, unique_by=lambda r: r[0])
extreme_rows = st.lists(st.tuples(st.one_of(shared, extreme),
                                  st.one_of(st.floats(0.0, 1e4), extreme)), max_size=1)
well_formed = st.builds(lambda rows, more: "\n".join(
    [SPECTRUM_HEADER] + [f"{e!r},{i!r}" for e, i in sorted(rows + more, key=lambda r: r[0])]
) + "\n", finite_rows, extreme_rows)
csv_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
csv_number = st.one_of(st.floats(-1e4, 1e4).map(repr), st.sampled_from(["1e400", "nan"]),
                       csv_text)
junk_csv = st.builds(
    lambda comments, header, rows: "\n".join(comments + [header] + rows) + "\n",
    st.lists(st.just("# c: 1"), max_size=1),
    st.one_of(st.just(SPECTRUM_HEADER), csv_text),
    st.lists(st.one_of(st.tuples(csv_number, csv_number).map(",".join), csv_text), max_size=6),
)
csv_body = st.one_of(well_formed, junk_csv)


@given(a=csv_body, b=csv_body, command=st.sampled_from(["fidelity", "broaden"]),
       option=st.sampled_from(["l2", "bhattacharyya", "lorentzian", "gaussian"]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_spectrum_csv_exit_codes(a, b, command, option):
    """Any spectrum CSV gives a documented exit code and never a nan result."""
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        pa.write_text(a, encoding="utf-8")
        pb.write_text(b, encoding="utf-8")
        if command == "fidelity":
            norm = option if option in ("l2", "bhattacharyya") else "l2"
            argv = ["fidelity", str(pa), str(pb), "--norm", norm]
        else:
            shape = option if option in ("lorentzian", "gaussian") else "lorentzian"
            argv = ["broaden", str(pa), "--shape", shape, "--fwhm", "30",
                    "--out", str(Path(tmp) / "o.csv")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 2, 4)
    assert "nan" not in out.getvalue()


class TestCliConverge:
    def test_single_run_zero_std(self, tmp_path, molecule_path):
        out = tmp_path / "conv.csv"
        assert main(["converge", str(molecule_path), "--events-list", "100,1000",
                     "--runs", "1", "--max-quanta", "1", "--seed", "7",
                     "--out", str(out)]) == 0
        rows = [l for l in out.read_text(encoding="utf-8").splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "events,mean_fidelity,std_fidelity"
        for row in rows[1:]:
            assert float(row.split(",")[2]) == 0.0
        assert "# overflow: cap" in out.read_text(encoding="utf-8").splitlines()

    def test_no_overflow_flag(self):
        # the study always scores against the capped reference, the law
        # of what its sampler records
        with pytest.raises(SystemExit) as err, contextlib.redirect_stderr(io.StringIO()):
            main(["converge", "m.json", "--events-list", "100", "--out", "o.csv",
                  "--overflow", "cap"])
        assert err.value.code == 2


class TestCliDetector:
    DETECTOR_KEYS = ("efficiency", "dark_mean", "threshold_mode")

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("command", ["sample", "converge"])
    def test_bad_dark_exit_2(self, tmp_path, molecule_path, command, value):
        out = tmp_path / "o.csv"
        argv = [command, str(molecule_path), "--dark", value, "--seed", "1", "--out", str(out)]
        argv += ["--events", "100"] if command == "sample" else ["--events-list", "100"]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cause", ["dark", "huang_rhys"])
    @pytest.mark.parametrize("command", ["sample", "converge"])
    def test_poisson_mean_too_large_exit_2(self, tmp_path, molecule_path, capsys, command,
                                           cause):
        # numpy draws no Poisson mean above ~9.2e18; the refusal names
        # the mode and its recorded mean
        out = tmp_path / "o.csv"
        argv = [command, str(molecule_path), "--seed", "1", "--out", str(out)]
        argv += ["--events", "100"] if command == "sample" else ["--events-list", "100"]
        if cause == "dark":
            argv += ["--dark", "1e300"]
            want = "mode 1: recorded mean efficiency*S + dark_mean"
        else:
            m = pentacene_like_8()
            modes = list(m.modes)
            modes[2] = replace(modes[2], huang_rhys=1e19)
            write_molecule(replace(m, modes=tuple(modes)), molecule_path)
            want = "mode 3: recorded mean efficiency*S + dark_mean"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert want in err and ("1e+300" if cause == "dark" else "1e+19") in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--efficiency", "0.5"], ["--dark", "0.2"]])
    def test_converge_scores_against_detector_reference(self, tmp_path, molecule_path, flags):
        # the K=1 capped study reaches F ~ 1 only against the reference
        # of what the detector records (0.979 and 0.80 against the ideal one)
        out = tmp_path / "conv.csv"
        assert main(["converge", str(molecule_path), "--events-list", "100000",
                     "--runs", "2", "--max-quanta", "1", "--seed", "3",
                     *flags, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert float(lines[-1].split(",")[1]) >= 0.999
        for key in self.DETECTOR_KEYS:
            assert any(l.startswith(f"# {key}: ") for l in lines), key

    def test_provenance_records_detector(self, tmp_path, molecule_path):
        for argv in (["sos"], ["sample", "--events", "100", "--threshold", "--seed", "1"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main([argv[0], str(molecule_path), *argv[1:], "--out", str(out)]) == 0
            comments = read_spectrum(out).provenance["comments"]
            for key in self.DETECTOR_KEYS:
                assert any(c.startswith(f"# {key}: ") for c in comments), (argv[0], key)
        assert "# threshold_mode: True" in comments


class TestCliHr:
    @pytest.mark.parametrize("omega,gradient,expected",
                             [("2", "2", 1.0), ("5", "0", 0.0), ("1", "1", 0.5)])
    def test_values(self, capsys, omega, gradient, expected):
        assert main(["hr", "--omega", omega, "--gradient", gradient]) == 0
        assert float(capsys.readouterr().out) == expected

    def test_nonpositive_omega_exit_2(self):
        assert main(["hr", "--omega", "0", "--gradient", "1"]) == 2
