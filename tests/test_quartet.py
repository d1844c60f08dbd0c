"""The seed table of ``tests/quartet.py`` on made-up quartets (no training)."""

from quartet import main, table, verdict

PASSING = {"cm+cl": 0.96, "cm+tl": 0.90, "sm+cl": 0.07, "sm+tl": 0.07, "fidelity": 0.99}
FAILING = {"cm+cl": 0.58, "cm+tl": 0.59, "sm+cl": 0.07, "sm+tl": 0.07, "fidelity": 0.99}


def test_verdict_applies_acceptance_6_and_7():
    margins, passes_6, passes_7 = verdict(PASSING)
    assert margins == {
        "cm+cl vs cm+tl": 0.96 - 0.90, "cm+tl vs sm+tl": 0.90 - 0.07, "cm+cl vs sm+cl": 0.96 - 0.07,
    }
    assert (passes_6, passes_7) == (True, True)
    assert verdict(FAILING)[1:] == (False, False)
    assert verdict({**PASSING, "fidelity": 0.94})[1:] == (False, True)


def test_table_prints_each_seed_and_the_pass_counts():
    lines = table({19: PASSING, 1: FAILING})
    assert lines[0].split() == [
        "seed", "cm+cl", "cm+tl", "sm+cl", "sm+tl",
        "cm+cl", "vs", "cm+tl", "cm+tl", "vs", "sm+tl", "cm+cl", "vs", "sm+cl", "acc6", "acc7",
    ]
    assert lines[1].split() == ["19", "0.96", "0.9", "0.07", "0.07", "+0.0600", "+0.8300", "+0.8900", "True", "True"]
    assert lines[2].split()[0] == "1" and lines[2].split()[-2:] == ["False", "False"]
    assert lines[3].split() == ["med", "0.7700", "0.7450", "0.0700", "0.0700"]
    assert lines[4] == "acceptance 6 holds at 1 of 2 seeds, acceptance 7 at 1 of 2"


def test_seeds_must_be_given_as_integers(capsys):
    assert main([]) == 2
    assert main(["19", "x"]) == 2
    assert capsys.readouterr().err.count("usage:") == 2
