import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchcover.cli
import matchcover.cover
from matchcover import Graph, serialize_graph
from matchcover.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_NO_COVER,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

from conftest import (
    balancing_faults,
    greedyhard,
    pile_on_first_center,
    plant_mate,
    stall_transform,
    unmatch_one_pair,
)

P4 = "p 4 3\ne 1 2\ne 2 3\ne 3 4\n"
C3 = "p 3 3\ne 1 2\ne 2 3\ne 1 3\n"
K13 = "p 4 3\ne 1 2\ne 1 3\ne 1 4\n"
P3 = "p 3 2\ne 1 2\ne 2 3\n"
# centers 1 and 2 keep their partners 4 and 6; exposed vertex 3 reaches
# both, ties to center 1, and 5 reaches only center 1, so the seed cover
# holds 3, 4, 5 on center 1 and one rebalancing transform moves 3 to center 2
WALK = "p 6 5\ne 1 3\ne 2 3\ne 1 4\ne 1 5\ne 2 6\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_p4(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p4.g", P4)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines() == ["mc = 1", "M1: 1-2 3-4"]


def test_solve_c3(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "c3.g", C3)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "mc = 2"


def test_solve_star(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "k13.g", K13)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines() == ["mc = 3", "M1: 1-2", "M2: 1-3", "M3: 1-4"]


def _bad_switch(*args, **kwargs):
    raise ValueError("switching path does not alternate")


def _lost_key(*args, **kwargs):
    raise KeyError(7)


def test_solve_engine_failure_exit_4(tmp_path, capsys, monkeypatch):
    """A blossom pass that returns a non-maximum matching or a perfect mate
    list pairing a non-edge, or a broken balancing step, is reported as an
    internal error, not as "no cover" and not as a crash; an unexpected
    exception type is named."""
    cases = [
        (unmatch_one_pair, C3, "internal error: "),
        (
            lambda patch: plant_mate(patch, [(0, 3), (1, 2)]),
            P4,
            "internal error: assembled cover is not a valid matching cover",
        ),
        (
            lambda patch: patch.setattr(matchcover.cover, "optimize", _bad_switch),
            P3,
            "internal error: ",
        ),
        (
            lambda patch: patch.setattr(matchcover.cover, "optimize", _lost_key),
            P3,
            "internal error: KeyError: 7\n",
        ),
    ]
    for breaks, text, message in cases:
        with monkeypatch.context() as patch:
            breaks(patch)
            code = main(["solve", write(tmp_path, "g.g", text)])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err.startswith(message)
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "g, inject", [pytest.param(g, f, id=name) for name, g, f in balancing_faults()]
)
def test_solve_balancing_fault_exit_4(g, inject, tmp_path, capsys, monkeypatch):
    """A balancing fault that only the final cover check catches exits 4."""
    path = write(tmp_path, "g.g", serialize_graph(g) + "\n")
    inject(monkeypatch)
    code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: assembled cover is not a valid matching cover")
    assert "Traceback" not in err


def test_solve_balancing_invariant_exit_4(tmp_path, capsys, monkeypatch):
    """Balancing's own checks end as exit 4: a transform that moves nothing
    trips the transform bound after |A| + |D*| + 1 = 2 + 4 + 1 paths, and a
    move that piles load onto the maximum center trips the maximum check."""
    path = write(tmp_path, "walk.g", WALK)
    with monkeypatch.context() as patch:
        paths = stall_transform(patch)
        code = main(["solve", path])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err == (
        "internal error: switching-path transform count exceeded"
        " the derived graph order\n"
    )
    assert len(paths) == 7
    with monkeypatch.context() as patch:
        pile_on_first_center(patch)
        code = main(["solve", path])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: maximum star size increased\n"


def test_solve_json(tmp_path, capsys):
    code = main(["solve", "--json", write(tmp_path, "p3.g", P3)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["instance"] == "p3.g"
    assert obj["n"] == 3 and obj["m"] == 2
    assert obj["mc"] == 2
    assert obj["branch"] == "gstar"
    assert obj["md"] == 2
    assert obj["cover"] == [[[1, 2]], [[2, 3]]]


def _module_env():
    """The environment with the package this test imports on the path."""
    src = str(Path(matchcover.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_module(*args):
    """``python -m matchcover.cli`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "matchcover.cli", *args],
        capture_output=True, env=_module_env(), check=False,
    )


def test_cli_runs_as_a_module(tmp_path, capsys):
    """The module prints the same report as ``main`` and exits 0; a
    malformed file exits 2 with an error line and no traceback."""
    path = write(tmp_path, "walk.g", WALK)
    assert main(["solve", path, "--json"]) == EXIT_OK
    want = capsys.readouterr().out
    done = _run_module("solve", path, "--json")
    assert done.returncode == EXIT_OK
    assert done.stdout.decode() == want
    bad = _run_module("solve", write(tmp_path, "bad.g", "p 2 1\ne 1 1\n"))
    assert bad.returncode == EXIT_USAGE
    assert bad.stdout == b""
    assert b"self-loop" in bad.stderr and b"Traceback" not in bad.stderr


@pytest.mark.parametrize(
    "flags", [["--json"], [], ["--trace"]], ids=["json", "text", "trace"]
)
def test_solve_reader_closing_early_exit_141(flags, tmp_path):
    """A reader that closes the pipe after one byte: solve exits 141 with
    nothing on stderr, whether the report or a trace line printed while
    balancing runs meets the closed pipe.  Each output is several times a
    pipe's buffer, so the writer always writes again after the close."""
    assert EXIT_BROKEN_PIPE == 141
    path = write(tmp_path, "greedyhard.g", serialize_graph(greedyhard(13)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "matchcover.cli", "solve", path, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert err == b""  # no traceback, no error line


def test_solve_verify_flag(tmp_path, capsys):
    code = main(["solve", "--verify", write(tmp_path, "c3.g", C3)])
    assert code == EXIT_OK


def test_solve_trace_flag(tmp_path, capsys):
    """One transform line, in the exact trace format: the path runs from
    center 1 through vertex 3 to center 2, and leaves a maximum of 2."""
    code = main(["solve", "--trace", write(tmp_path, "t.g", WALK)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    transforms = [line for line in out.splitlines() if line.startswith("transform:")]
    assert transforms == ["transform: origin=1 terminus=2 length=2 delta=2"]
    assert "mc = 2" in out


def test_solve_trace_flag_host_ids_per_component(tmp_path, capsys):
    # the instance above shifted by 2, plus a K2 on vertices 1-2: the
    # graph is solved whole, and the trace names host vertices (1-based)
    text = "p 8 6\ne 1 2\ne 3 5\ne 4 5\ne 3 6\ne 3 7\ne 4 8\n"
    code = main(["solve", "--trace", write(tmp_path, "t.g", text)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    transforms = [line for line in out.splitlines() if line.startswith("transform:")]
    assert len(transforms) == 1
    assert "origin=3 terminus=4" in transforms[0]
    assert "mc = 2" in out


def test_solve_parse_error_exit_2(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "bad.g", "p 2 1\ne 1 1\n")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "self-loop" in err


def test_solve_missing_file_exit_2(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.g")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_non_utf8_file_exit_2(command, tmp_path, capsys):
    """A file that is not UTF-8 text is bad input, exit 2, named in the
    message; not a traceback, and not oracle's mismatch code 1."""
    path = tmp_path / "latin.g"
    path.write_bytes(b"p 2 1\ne 1 2\n\xff\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_solve_single_vertex_exit_3(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "one.g", "p 1 0\n")])
    assert code == EXIT_NO_COVER
    assert capsys.readouterr().err == (
        "error: vertex 0 is isolated: no matching cover exists\n"
    )


def test_solve_rejects_header_beyond_twice_the_edges(tmp_path, capsys, monkeypatch):
    """A header declaring n > 2m leaves some vertex on no edge: solve, and
    oracle alike, exit 3 naming the lowest one, without building the n
    adjacency lists."""
    real = Graph._from_ends

    def guarded(n, ends):
        assert n <= len(ends), "graph built for a header beyond 2m"
        return real(n, ends)

    monkeypatch.setattr(Graph, "_from_ends", guarded)
    for text, v in [
        ("p 1000000000 0\n", 0),
        ("p 5 2\ne 1 2\ne 3 4\n", 4),
        ("c not canonical\np 5 2\ne 4 5\ne 1 3\n", 1),
    ]:
        code = main(["solve", write(tmp_path, "g.g", text)])
        assert code == EXIT_NO_COVER
        assert capsys.readouterr().err == (
            f"error: vertex {v} is isolated: no matching cover exists\n"
        )
    code = main(["oracle", write(tmp_path, "g.g", "p 1000000000 0\n")])
    assert code == EXIT_NO_COVER
    assert "vertex 0 is isolated" in capsys.readouterr().err
    # a format error still wins, with its line number
    code = main(["solve", write(tmp_path, "loop.g", "p 1000000000 1\ne 1 1\n")])
    assert code == EXIT_USAGE
    assert "loop.g: line 2: self-loop at vertex 1" in capsys.readouterr().err


def test_oracle_agreement(tmp_path, capsys):
    for text, k in ((P3, 2), (K13, 3), (P4, 1)):
        code = main(["oracle", write(tmp_path, "g.g", text)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.strip() == f"pipeline={k} oracle={k} OK"
    assert EXIT_MISMATCH == 1


def test_oracle_engine_failure_exit_4(tmp_path, capsys, monkeypatch):
    """The oracle has already ruled out "no cover", so a ValueError, or any
    other exception, from the pipeline is an internal error: exit 4, not the
    mismatch code 1."""
    for broken, message in [
        (_bad_switch, "internal error: "),
        (_lost_key, "internal error: KeyError: 7\n"),
    ]:
        monkeypatch.setattr(matchcover.cover, "optimize", broken)
        code = main(["oracle", write(tmp_path, "p3.g", P3)])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err.startswith(message)
        assert "Traceback" not in err


def test_oracle_budget_exit_5(tmp_path, capsys):
    big = "p 20 19\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 20))
    code = main(["oracle", write(tmp_path, "big.g", big)])
    assert code == 5


def test_random_deterministic(capsys):
    main(["random", "--n", "6", "--p", "0.5", "--seed", "1"])
    first = capsys.readouterr().out
    main(["random", "--n", "6", "--p", "0.5", "--seed", "1"])
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("p 6 ")


def test_random_too_few_edges_exit_2(capsys):
    code = main(["random", "--n", "4", "--m", "2", "--seed", "0"])
    assert code == EXIT_USAGE


def test_random_no_connected_sample_exit_2(capsys):
    """G(3, 0) is never connected: exit 2 with one error line and no
    traceback, not 1, which is oracle's mismatch code."""
    code = main(["random", "--n", "3", "--p", "0", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: no connected sample in 10000 attempts (n=3, p=0.0)\n"
    )


def test_random_count_option_is_gone(capsys):
    """``random`` prints one graph per call: ``--count`` is an unknown option."""
    with pytest.raises(SystemExit) as exc:
        main(["random", "--n", "5", "--m", "6", "--seed", "3", "--count", "2"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "--count" in err


def test_oracle_max_n_option_is_gone(tmp_path, capsys):
    """The oracle's budget is fixed at n <= 12 and m <= 66: ``--max-n`` is
    an unknown option, not a way into a brute force whose recursion ends
    in a traceback under the mismatch code 1 (1000 disjoint edges did)."""
    text = "p 2000 1000\n" + "".join(f"e {2 * i + 1} {2 * i + 2}\n" for i in range(1000))
    f = write(tmp_path, "matching.g", text)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", f, "--max-n", "2000"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "--max-n" in err
    assert main(["oracle", f]) == 5


def test_bench_command_is_gone(capsys):
    """Timing lives in solvebench alone: ``bench`` is an unknown command."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "40"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bench" in err
