"""Figure 15: effective operation duration vs power-transfer threshold.

The paper groups the 16 (station, month) curves into slow, linear, and rapid
decline patterns; the curves here exhibit the same spectrum.
"""


def test_fig15_duration_thresholds(reproduce):
    curves = reproduce("fig15")

    for pts in curves.values():
        durations = [d for _, d in pts]
        # Monotone non-increasing in the threshold.
        assert all(b <= a + 1e-9 for a, b in zip(durations, durations[1:]))

    # The decline spectrum: the budget step from 60 W to 125 W costs little
    # somewhere (slow decline) and a lot somewhere else (rapid decline).
    drops = [pts[1][1] - pts[-1][1] for pts in curves.values() if pts[1][1] > 0]
    assert max(drops) - min(drops) > 0.25
