"""The correctness scoreboard (``scoreboard.py``) only moves down: no guarded
count of its grid, and no count of outcomes moved by a relation, may rise
above the committed one."""

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
            key = scoreboard.moved_key(theorem_id, mode, case)
            moved = counts.get(key, {})
            assert moved.keys() == committed.get(key, {}).keys(), f"{key}: the relations changed"
            rises += [
                f"{key}: {name} {committed[key][name]} -> {n}"
                for name, n in moved.items()
                if n > committed[key][name]
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


def test_relations_that_apply():
    """Scalings of homogeneous functions that keep every interval end within
    1e6, and the mirror of mt2 auto and c alone."""
    assert scoreboard.relations("mt1", "proper", "signed_square", ((0.5, 7.0), 2.0)) == (
        "2^-20", "2^-10", "2^10",
    )
    assert scoreboard.relations("mc1", "literal", "quadratic:2", ((-1e4, 1e4), 0.0)) == (
        "2^-20", "2^-10",
    )
    assert scoreboard.relations("mt2", "auto", "signed_square", ((-1.0, 1.0), 0.0)) == (
        *(f"2^{k}" for k in scoreboard.SCALES), "mirror",
    )
    assert scoreboard.relations("mt2", "a", "exp", ((-1.0, 1.0), 0.0)) == ()


def test_scaling_leaves_weights_and_is_exact():
    payload = {"c": 0.5, "interval": [-1, 3], "inner": [0.25, 1.0], "L": [0.5, 0.5],
               "g": [0.3, 0.7], "Ls": [[1.0]], "left": {"plus_a": {"points": [0.1], "weights": [1.0]}},
               "c_convention": "printed"}
    image = scoreboard.scaled(payload, 10)
    assert image["L"] == payload["L"] and image["Ls"] == payload["Ls"]
    assert image["left"]["plus_a"] == {"points": [0.1 * 1024], "weights": [1.0]}
    assert image["interval"] == [-1024.0, 3072.0] and image["c"] == 512.0
    assert image["c_convention"] == "printed"
    assert scoreboard.scaled(image, -10) == payload


def test_mirror_is_an_involution():
    import random

    from jensengap.scengen import GenSpec, gen_payload

    payload = gen_payload(GenSpec(seed=3), "mt2", "auto", random.Random(3))
    image = scoreboard.mirrored(payload)
    assert image["c"] == -payload["c"]
    assert max(p for g in image["left"].values() for p in g["points"]) <= image["c"]
    assert scoreboard.mirrored(image) == payload
