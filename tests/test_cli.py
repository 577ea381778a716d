import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monadlab.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv):
    """Run the CLI in a child that caps its own address space at 512 MB, so
    a table built before the ceiling check fails fast instead of exhausting
    the host."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from monadlab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env={"PYTHONPATH": str(src)},
    )


class TestAlgebras:
    def test_none_on_two(self, capsys):
        code, out, _ = run(capsys, "algebras", "--s", "2", "--x", "2", "--method", "brute")
        assert code == 0
        assert out.startswith("0 algebras")

    def test_twelve_on_four(self, capsys):
        code, out, _ = run(
            capsys, "algebras", "--s", "2", "--x", "4", "--method", "transport"
        )
        assert code == 0
        assert out.startswith("12 algebras")

    def test_one_on_three_single_state(self, capsys):
        code, out, _ = run(capsys, "algebras", "--s", "1", "--x", "3")
        assert code == 0
        assert out.startswith("1 algebra ")

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys, "algebras", "--s", "2", "--x", "4", "--method", "transport",
            "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert first["s_size"] == 2 and first["x_size"] == 4
        assert len(first["h"]) == 64

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "algebras.ndjson"
        code, _, _ = run(
            capsys, "algebras", "--s", "2", "--x", "1", "--out", str(target)
        )
        assert code == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(records) == 1

    def test_ceiling_exit_code(self, capsys):
        code, _, err = run(
            capsys, "algebras", "--s", "2", "--x", "4", "--method", "brute"
        )
        assert code == 2
        assert "ceiling" in err

    def test_env_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("MONADLAB_CEILING", "10")
        code, _, err = run(capsys, "algebras", "--s", "2", "--x", "2", "--method", "brute")
        assert code == 2 and "ceiling" in err

    def test_bad_env_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("MONADLAB_CEILING", "many")
        code, _, err = run(capsys, "algebras", "--s", "2", "--x", "2")
        assert code == 2

    def test_empty_state_refused(self, capsys):
        code, _, err = run(capsys, "algebras", "--s", "0", "--x", "2")
        assert code == 2
        assert "nonempty" in err

    def test_removed_flags_rejected(self):
        for argv in (
            ["algebras", "--s", "2", "--x", "2", "--jobs", "2"],
            ["verify", "--s", "2", "--max-x", "1", "--s0", "0"],
            # --ceiling exists only where it is read, --seed only on verify,
            # which ignores it
            ["equal", "--s", "2", "--seed", "3", "x0", "x0"],
            ["free", "--s", "2", "--vars", "1", "--ceiling", "5"],
            ["rewrite", "--s", "2", "--ceiling", "1", "x0"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "s,x,method",
        [
            ("2", "99999999999999999", "constrained"),
            ("2", "99999999999999999", "brute"),
            ("2", "10000000000000000", "transport"),
            ("12", "1", "brute"),
            ("100000000", "2", "constrained"),
        ],
        # "<x>-<method>" at two states, "s<S>-<x>-<method>" otherwise
        ids=[
            "99999999999999999-constrained",
            "99999999999999999-brute",
            "10000000000000000-transport",
            "s12-1-brute",
            "s100000000-2-constrained",
        ],
    )
    def test_huge_carrier_refused_before_allocating(self, s, x, method):
        proc = run_capped("algebras", "--s", s, "--x", x, "--method", method)
        assert proc.returncode == 2, proc.stderr
        assert "ceiling" in proc.stderr

    @pytest.mark.parametrize("s,x", [("2", "8"), ("3", "2")])
    def test_refuted_under_default_ceiling(self, capsys, s, x):
        code, out, _ = run(capsys, "algebras", "--s", s, "--x", x)
        assert code == 0
        assert out.startswith("0 algebras")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "algebras", "--s", "2", "--x", "4",
                         "--method", "transport", "--format", "json")
        _, out2, _ = run(capsys, "algebras", "--s", "2", "--x", "4",
                         "--method", "transport", "--format", "json")
        assert out1 == out2


class TestVerify:
    def test_huge_max_x_refused_before_the_loop(self):
        proc = run_capped("verify", "--s", "2", "--max-x", "100000")
        assert proc.returncode == 2, proc.stderr
        assert "ceiling" in proc.stderr and proc.stdout == ""

    def test_sixty_carriers_at_one_state(self, capsys):
        # the hom-sets between K(0..60) are decided from the checks on each
        # K(y), so no map is walked and none is charged to the ceiling
        code, out, err = run(capsys, "verify", "--s", "1", "--max-x", "60", "--format", "json")
        report = json.loads(out)
        assert code == 0 and err == ""
        assert report["passed"] is True
        assert not any(info["guarded"] for info in report["carriers"].values())
        assert report["checks"]["roundtrip_iso_natural"]["checked"] == 61**2

    def test_seed_ignored(self, capsys):
        outputs = {
            run(capsys, "verify", "--s", "2", "--max-x", "4", "--seed", seed)
            for seed in ("1", "2")
        }
        assert len(outputs) == 1
        assert outputs.pop()[0] == 0

    def test_three_states_carrier_two_settled(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "3", "--max-x", "2",
                           "--format", "json")
        report = json.loads(out)
        assert code == 0
        assert report["carriers"]["2"] == {"count": 0, "guarded": None}
        # K(2) has about 7 * 10^13 TTX codes and is decided exactly
        assert not any("sampled" in note for note in report["notes"])

    def test_passes_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "1", "--max-x", "3")
        assert code == 0
        assert out.strip().endswith("PASSED")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--s", "2", "--max-x", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["carriers"]["2"]["count"] == 0

    def test_negative_max_x_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--s", "1", "--max-x", "-3")
        assert code == 2 and out == ""
        assert "non-negative" in err

    def test_refuses_empty_state(self, capsys):
        code, _, err = run(capsys, "verify", "--s", "0", "--max-x", "2")
        assert code == 2
        assert "nonempty state object" in err

    def test_empty_state_diagnostic(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--s", "0", "--max-x", "2", "--diagnose-empty"
        )
        assert code == 0
        assert "carrier 1: 1 algebra(s)" in out
        assert "carrier 2: 0 algebra(s)" in out

    def test_diagnose_empty_negative_max_x(self, capsys):
        code, out, err = run(
            capsys, "verify", "--s", "0", "--max-x", "-3", "--diagnose-empty"
        )
        assert code == 2 and out == ""
        assert "non-negative" in err

    def test_diagnose_empty_refused_with_states(self, capsys):
        code, out, err = run(
            capsys, "verify", "--s", "2", "--max-x", "1", "--diagnose-empty"
        )
        assert code == 2 and out == ""
        assert "--diagnose-empty applies only with --s 0, got --s 2" in err

    def test_report_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--s", "1", "--max-x", "2", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True


class TestUnwritableOut:
    """An ``--out`` path that cannot be written is a resource error: exit 2
    with a message after the result is printed, never a traceback, and for
    ``verify`` never the exit 1 of a failed verification."""

    @pytest.mark.parametrize("argv", [
        ["algebras", "--s", "2", "--x", "2"],
        ["verify", "--s", "2", "--max-x", "2"],
        ["verify", "--s", "0", "--max-x", "1", "--diagnose-empty"],
    ])
    def test_exit_two(self, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        proc = run_capped(*argv, "--out", str(target))
        assert proc.returncode == 2 and proc.stdout
        assert "Traceback" not in proc.stderr
        assert f"error: cannot write {target}: " in proc.stderr


class _ClosedPipe:
    """A stdout whose reader has gone: ``flush`` raises BrokenPipeError, and
    ``write`` too when ``failing`` is ``"write"``.  ``fileno`` is a real
    file's, which the CLI points at devnull."""

    def __init__(self, fd, failing):
        self.fd, self.failing = fd, failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """A reader that closes stdout early (``monadlab verify ... | head -1``)
    ends the run with exit 2 and no traceback."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_exit_two_in_process(self, capsys, monkeypatch, tmp_path, failing):
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, failing))
            code = main(["verify", "--s", "2", "--max-x", "4"])
            os.write(fd, b"after")  # now devnull's
        finally:
            os.close(fd)
        assert code == 2
        assert capsys.readouterr().err == ""
        assert target.read_bytes() == b""

    def test_exit_two_on_a_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monadlab.cli", "verify", "--s", "2", "--max-x", "4"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=20,
                env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == ""


class TestEqual:
    def test_equal_terms(self, capsys):
        code, out, _ = run(capsys, "equal", "--s", "2", "u0(u1(x0))", "u1(x0)")
        assert code == 0 and out.strip() == "equal"

    def test_different_terms(self, capsys):
        code, out, _ = run(capsys, "equal", "--s", "2", "x0", "u0(x0)")
        assert code == 1 and out.strip() == "different"

    def test_ceiling_environment_not_read(self, capsys, monkeypatch):
        # equal runs no search, so a malformed ceiling is not its concern
        monkeypatch.setenv("MONADLAB_CEILING", "many")
        code, out, _ = run(capsys, "equal", "--s", "2", "u0(u1(x0))", "u1(x0)")
        assert code == 0 and out.strip() == "equal"

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "equal", "--s", "2", "l(x0)", "x0")
        assert code == 2
        assert "position" in err

    def test_explicit_vars(self, capsys):
        code, _, _ = run(capsys, "equal", "--s", "2", "--vars", "3", "x0", "x0")
        assert code == 0

    @pytest.mark.parametrize("term", ["u\u00b2(x0)", "x\uff10"])
    def test_non_ascii_digit_is_a_usage_error(self, capsys, term):
        # a superscript two used to escape as a ValueError traceback with
        # exit 1, which reads as "different"
        code, out, err = run(capsys, "equal", "--s", "2", term, "x0")
        assert code == 2 and out == ""
        assert "expected a number (at position 1)" in err


class TestRewrite:
    def test_normal_form(self, capsys):
        code, out, _ = run(capsys, "rewrite", "--s", "2", "l(u0(x0),u1(x0))")
        assert code == 0 and out.strip() == "x0"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "rewrite", "--s", "2", "--format", "json", "u0(u1(x0))"
        )
        payload = json.loads(out)
        assert code == 0 and payload["normal"] == "u1(x0)"

    def test_non_ascii_digit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "rewrite", "--s", "2", "x\u00b2")
        assert code == 2 and out == ""
        assert "expected a number (at position 1)" in err

    def test_step_ceiling(self):
        # normal forms are read back, not rewritten: there is no step
        # ceiling, and its flag is rejected
        with pytest.raises(SystemExit) as exc:
            main(["rewrite", "--s", "2", "--max-steps", "1", "u0(u1(u0(x0)))"])
        assert exc.value.code == 2


class TestDeepTerms:
    # 1,200 nested updates, past the default recursion limit: the parser
    # does not recurse, so the term is answered like any other
    DEEP = "u0(" * 1200 + "x0" + ")" * 1200

    def test_equal(self, capsys):
        code, out, err = run(capsys, "equal", "--s", "2", self.DEEP, "x0")
        assert code == 1 and out.strip() == "different" and err == ""

    def test_rewrite(self, capsys):
        code, out, err = run(capsys, "rewrite", "--s", "2", self.DEEP)
        assert code == 0 and out.strip() == "u0(x0)" and err == ""


class TestFree:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "free", "--s", "2", "--vars", "1")
        assert code == 0 and out.startswith("4 classes")
        code, out, _ = run(capsys, "free", "--s", "2", "--vars", "2")
        assert code == 0 and out.startswith("16 classes")
        code, out, _ = run(capsys, "free", "--s", "1", "--vars", "2")
        assert code == 0 and out.startswith("2 classes")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "free", "--s", "2", "--vars", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["classes"] == 4 and payload["saturated"] is True

    def test_four_states(self, capsys):
        code, out, _ = run(capsys, "free", "--s", "4", "--vars", "1")
        assert code == 0 and out.startswith("256 classes")

    @pytest.mark.parametrize("s,nvars,depth", [
        # 60**6 classes; at depth 1, 1000**2 lookups of variables and 2,000
        # updates, just past the limit; 20000**2000 classes, a count of
        # more digits than str() of an int prints; and 200000000**2, whose
        # pairs alone would pass the memory cap
        ("6", "10", "2"), ("2", "1000", "1"), ("2000", "10", "2"),
        ("2", "100000000", "2"),
    ])
    def test_past_the_class_limit_refused_at_once(self, s, nvars, depth):
        proc = run_capped("free", "--s", s, "--vars", nvars, "--depth", depth)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "search ceiling exceeded" in proc.stderr
        assert "exceeds 1000000" in proc.stderr

    def test_no_variables_answered_at_once(self):
        # T(V) is empty: no run over 10**8 start states is built
        proc = run_capped("free", "--s", "100000000", "--vars", "0")
        assert proc.returncode == 0 and proc.stdout == "0 classes\n"


class TestStartStateBound:
    @pytest.mark.parametrize("argv", [
        ("equal", "--s", "100000000", "x0", "x0"),
        ("rewrite", "--s", "100000000", "x0"),
    ])
    def test_past_the_limit_refused_at_once(self, argv):
        # one run per start state: 10**8 of them would pass the memory cap
        proc = run_capped(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "search ceiling exceeded" in proc.stderr
        assert "exceed 1000000" in proc.stderr and "Traceback" not in proc.stderr

    def test_at_the_limit_answered(self, capsys):
        code, out, _ = run(capsys, "equal", "--s", "1000000", "x0", "x0")
        assert code == 0 and out == "equal\n"


class TestParserReuse:
    def test_same_output_after_an_error_and_help(self, capsys):
        """main builds its parser once per process, and neither a usage
        error nor --help leaves anything behind for the next call."""
        good = ("algebras", "--s", "2", "--x", "4", "--format", "json")
        first = run(capsys, *good)
        assert first[0] == 0 and first[1]
        for argv, code in ((["algebras", "--s", "2"], 2), (["--help"], 0), (["free", "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            out = capsys.readouterr().out
            assert out.startswith("usage: monadlab") if code == 0 else out == ""
        assert run(capsys, *good) == first
        assert _build_parser() is _build_parser()


class TestStdoutDigests:
    """Default stdout is byte-stable: sha256 of what each command printed
    when these digests were recorded."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("algebras --s 2 --x 4 --format json",
             "a0ed0549fa34af3cfe279685c3bb34a9f6206a5d425f7883a009ecf13f12a4bb"),
            ("algebras --s 2 --x 5 --format json",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("algebras --s 3 --x 1 --format json",
             "3b8da7784cd700794161a3e2a631d9f99bd9784c3e0a0d0ae524674be772fabe"),
            ("verify --s 2 --max-x 4 --format json --seed 11",
             "0125906cdd7eb12af9f2223a8e9dcb4f5145b417a5ce4ac2aa40da22f2cefba0"),
            ("verify --s 1 --max-x 6 --format json --seed 11",
             "94818620c6719784b0dc087237835cc03a554704652101a0a20d65589c8c208b"),
            ("verify --s 3 --max-x 1 --format json --seed 11",
             "4d3993ce3d9f44e99b8264b838fc03b2d428757f0fe1c24e584e4c4ff8112dca"),
            ("verify --s 2 --max-x 5 --format json --seed 11",
             "98a01c875adc51f178a765efc8136fb2b99e941fc497f35da8074caf34cb924a"),
            ("verify --s 2 --max-x 4",
             "909745a546f1f61f33eb2d776ad5346be42bc23ba5af3b40f756dc1bf9f9db72"),
        ],
    )
    def test_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
