"""The correctness scoreboard (``scoreboard.py``) only moves down: no guarded
count of its grid may rise above the committed one."""

import scoreboard


def test_no_guarded_count_rises_above_the_committed_one():
    committed = scoreboard.load()
    counts = scoreboard.run()
    assert counts.keys() == committed.keys(), "the grid changed: re-record scoreboard.json"
    rises = []
    for theorem_id, mode, fn in scoreboard.pairs():
        for case in scoreboard.CASES:
            key = scoreboard.cell_key(theorem_id, mode, case)
            rises += [
                f"{key}: {outcome} {committed[key][outcome]} -> {counts[key][outcome]}"
                for outcome in scoreboard.guarded(theorem_id, mode, fn, case)
                if counts[key][outcome] > committed[key][outcome]
            ]
    assert not rises, (
        "a rise of a guarded scoreboard count is a regression; lower counts are"
        " re-recorded with `python tests/scoreboard.py --write`:\n" + "\n".join(rises)
    )


def test_guarded_fails_are_those_of_an_identity_chain():
    """fails is guarded where f'' is constant on each side of c: quadratics
    everywhere and signed_square at 0, but not off 0, and never cubic or exp."""
    wide, off = ((-1e4, 1e4), 0.0), ((-1.0, 1.0), 0.5)
    assert "fails" in scoreboard.guarded("mt3", "a", "quadratic:-3", wide)
    assert "fails" in scoreboard.guarded("mt4", "region_restricted", "signed_square", wide)
    assert "fails" not in scoreboard.guarded("mt4", "region_restricted", "signed_square", off)
    assert "fails" not in scoreboard.guarded("mt1", "literal_alpha", "signed_square", wide)
    assert "fails" not in scoreboard.guarded("mt2", "a", "exp", off)
    assert "fails" not in scoreboard.guarded("mt1", "proper", "cubic", wide)
