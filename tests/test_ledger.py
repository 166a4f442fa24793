"""The seed-0 benchmark entries: no error object is made by a decision, and
the oracle calls of every workload are pinned.

The decision sweep expects most of its attempts to fail, and a table lookup
to miss; both are return values, so a decision in the class constructs no
GrpextError. The `cli-verified` entries are pinned by the oracle-calls lines
of the CLI report, as a user runs them. A change that moves a count re-pins it
here and says by how much in CHANGES.md.
"""

import pytest

from corpus import bench_ladder
from grpext import blackbox, cli, iso
from grpext.errors import GrpextError

# entry id -> oracle calls of (G, H) after iso.isomorphic on the seed-0 files
LEDGER = {
    "kscan-large-gamma": {  # 2 811 in all
        "a211": (299, 323),
        "a1009": (356, 401),
        "a1009-no": (356, 378),
        "a1019": (328, 370),
    },
    "decomp-wide-abelian": {  # 4 056 in all
        "a25-31-31": (496, 436),
        "a11-11-table": (162, 156),
        "r4i1-rep0-rep0": (290, 290),
        "r4i1-rep0-rep1": (290, 288),
        "r4i1-rep3-table": (230, 215),
        "r4i2-rep2": (524, 524),
        "a3-3-no": (69, 86),
    },
}

# cli-verified entry id -> the oracle-calls lines of its report on the seed-0 files
CLI_LEDGER = {  # 721 in all; the sampled mu check of g21 proves mu by the relators, 9 calls in G and 12 in H
    "g21": ["oracle-calls-g 50", "oracle-calls-h 58"],
    "a3-3-no": ["oracle-calls-g 69", "oracle-calls-h 86"],
    "a25-31-31-decomp": ["oracle-calls 458"],
}


@pytest.mark.parametrize("workload", list(LEDGER))
def test_seed0_decisions_construct_no_error_and_keep_their_oracle_calls(workload, tmp_path, monkeypatch):
    constructed = []
    init = GrpextError.__init__

    def recording_init(self, *args):
        constructed.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(GrpextError, "__init__", recording_init)
    calls = {}
    with bench_ladder() as ladder:
        for item in ladder.prepare(workload, 0, tmp_path, write=True):
            G, H = (blackbox.load_group(item.files[side].read_text(encoding="utf-8")) for side in "gh")
            witness = iso.isomorphic(G, H).witness
            assert (witness and witness.k) == item.entry.k, item.entry.id
            calls[item.entry.id] = (G.operation_count, H.operation_count)
    assert constructed == []
    assert calls == LEDGER[workload]


def test_seed0_cli_reports_keep_their_oracle_calls(tmp_path, capsys):
    lines = {}
    with bench_ladder() as ladder:
        for item in ladder.prepare("cli-verified", 0, tmp_path, write=True):
            if item.entry.id in CLI_LEDGER:
                assert cli.main(ladder.cli_argv(item)) == 0, item.entry.id
                out = capsys.readouterr().out.splitlines()
                lines[item.entry.id] = [line for line in out if line.startswith("oracle-calls")]
    assert lines == CLI_LEDGER
