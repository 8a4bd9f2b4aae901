"""Capstone: the paper's headline claims, asserted in one card.

If any row of this card goes red, the reproduction has drifted.
"""


def test_paper_headlines(reproduce):
    claims = reproduce("headlines")

    failing = [c.claim for c in claims if not c.holds]
    assert not failing, failing
