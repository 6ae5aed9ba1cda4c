"""Every pinned command line still writes what it wrote when it was recorded.

``payloads.json`` and the exact differ live in ``regen_payloads.py``; see
its docstring for how to re-record an entry.
"""

import json

from regen_payloads import MANIFEST, differences, readme_tour, run_lines


def recorded():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_starts_with_the_readme_tour():
    tour = readme_tour()
    assert len(tour) == 19
    assert [r["argv"] for r in recorded()[: len(tour)]] == tour


def test_pinned_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("RIESZDIM_OUT", raising=False)
    pinned = recorded()
    fresh = run_lines([r["argv"] for r in pinned], tmp_path)
    assert list(differences(pinned, fresh, rel=1e-12)) == []
