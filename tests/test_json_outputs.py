"""The --format json output of every command and the JSON form of the result
records no command prints, recorded in data/cli_json_outputs.txt.

The invocations are chosen so that every result record and every `kind` is
written at least once: finite, periodic and at-least pd, each onset evidence
kind, both sides of `ab`, and every verdict command.  A refactor of the JSON
encoding must keep the file byte for byte.  To rewrite it (only when a
change of output is intended):

    PYTHONPATH=src python tests/test_json_outputs.py > tests/data/cli_json_outputs.txt
"""

import contextlib
import io
import sys
from pathlib import Path

import extbound as eb
from extbound.cli import main
from extbound.fileio import dumps_canonical

DATA = Path(__file__).parent / "data" / "cli_json_outputs.txt"

INVOCATIONS = (
    "algebra info --algebra builtin:CNAK2",
    "module check --module builtin:NAK3:P1",
    "resolve --module builtin:NAK3:S1 --cutoff 4",
    "ext --module builtin:CNAK2:S1 --against builtin:CNAK2:S2 --cutoff 5",
    "pd --module builtin:NAK3:S1 --cutoff 4",
    "pd --module builtin:LOOP2:S1 --cutoff 4",
    "pd --module builtin:CNAK2:S1 --cutoff 1",
    "id --module builtin:NAK3:S1 --cutoff 4",
    "onset --module builtin:NAK3:S1 --against regular --cutoff 4",
    "onset --module builtin:CNAK2:S1 --against regular --cutoff 4",
    "onset --module builtin:LOOP2:S1 --against builtin:LOOP2:S1 --cutoff 4",
    "onset --module builtin:CNAK2:S1 --against builtin:CNAK2:S2 --cutoff 1",
    "ab --module builtin:NAK3:S1 --corpus builtin:NAK3 --cutoff 4",
    "ab --module builtin:NAK3:S3 --corpus builtin:NAK3 --cutoff 4 --side right",
    "ab --module builtin:LOOP2:S1 --corpus builtin:LOOP2 --cutoff 4",
    "ab --module builtin:CNAK2:S1 --corpus builtin:CNAK2 --cutoff 1",
    "bounds --corpus builtin:A2 --cutoff 4",
    "tilting --module builtin:LOOP2:P1 --cutoff 4",
    "tilting --module builtin:A2:P1 --cutoff 4",
    "tilting --module builtin:A2:S1 --cutoff 4",
    "tilting --module builtin:LOOP2:S1 --cutoff 4 --maxlen 2",
    "wakamatsu --module builtin:LOOP2:P1 --cutoff 4",
    "wakamatsu --module builtin:A2:P1 --cutoff 4",
    "wakamatsu --module builtin:A2:S2 --cutoff 4 --maxlen 0",
    "wakamatsu --module builtin:LOOP2:S1 --cutoff 4",
    "ewtc --module builtin:LOOP2:P1 --cutoff 4",
    "ewtc --module builtin:LOOP2:S1 --cutoff 4",
    "ewtc --module builtin:A2:P1 --cutoff 4",
    "arc --corpus builtin:NAK3 --cutoff 4",
    "arc --corpus builtin:LOOP2 --cutoff 4",
    "arc --corpus builtin:CNAK2 --cutoff 1",
    "gsc --algebra builtin:NAK3 --cutoff 4",
    "gsc --algebra builtin:LOOP2 --cutoff 4",
    "uc --module builtin:NAK3:S1 --cutoff 4",
    "uc --module builtin:CNAK2:S1 --cutoff 1",
)


def _records():
    """(label, record) for the result records that no command prints."""
    nak3, loop2, cnak2 = (eb.fixture_corpus(n) for n in ("NAK3", "LOOP2", "CNAK2"))
    return (
        ("finite_pd_certificate NAK3:S1 4",
         eb.finite_pd_certificate(nak3.get("S1"), 4)),
        ("finite_pd_certificate LOOP2:S1 4",
         eb.finite_pd_certificate(loop2.get("S1"), 4)),
        ("finite_pd_certificate CNAK2:S1 1",
         eb.finite_pd_certificate(cnak2.get("S1"), 1)),
        ("check_regular_onset_formula NAK3:S1 NAK3 4",
         eb.check_regular_onset_formula(nak3.get("S1"), nak3, 4)),
        ("check_regular_onset_formula CNAK2:S1 CNAK2 1",
         eb.check_regular_onset_formula(cnak2.get("S1"), cnak2, 1)),
        ("verify_bound_properties A2 4",
         eb.verify_bound_properties(eb.fixture_corpus("A2"), 4)),
    )


def _run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", "json"])
    return code, out.getvalue()


def sections() -> dict[str, str]:
    """Header line -> recorded text, in the order of the file."""
    out = {}
    for command in INVOCATIONS:
        code, text = _run(command)
        out[f"$ extbound {command} --format json  [exit {code}]"] = text
    for label, record in _records():
        out[f"= {label}"] = dumps_canonical(record.to_json())
    return out


def _recorded() -> dict[str, str]:
    out, header = {}, None
    for line in DATA.read_text().splitlines(keepends=True):
        if line.startswith(("$ ", "= ")):
            header = line.rstrip("\n")
            out[header] = ""
        else:
            out[header] += line
    return out


def test_json_outputs_match_the_recorded_file():
    recorded = _recorded()
    current = sections()
    assert list(current) == list(recorded)
    for header, text in current.items():
        assert text == recorded[header], header


if __name__ == "__main__":
    for header, text in sections().items():
        sys.stdout.write(header + "\n" + text)
