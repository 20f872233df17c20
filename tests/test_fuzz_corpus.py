"""Tier-1 regression sweep over the banked fuzz corpus, plus durability tests.

Two jobs live here:

* replay every committed reproducer in ``tests/fuzz_corpus/`` with the
  translation check on — each fuzzer catch stays fixed forever;
* prove the corpus layer's durability contract: atomic banking (no torn or
  leftover tmp files), content-hash dedupe, and tolerant loading that turns
  corrupt entries into :class:`CorpusWarning` skips instead of tier-1 crashes.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.validation import corpus
from repro.validation.corpus import (
    CORPUS_SCHEMA,
    CorpusWarning,
    DEFAULT_CORPUS_DIR,
    entry_name,
    load_corpus,
    load_entry,
    save_entry,
)
from repro.validation.fuzz import FuzzConfig, FuzzScenario, replay_corpus
from repro.workloads.schedule import KernelOpSpec, OpSchedule


def minimal_entry(**extra) -> dict:
    """A tiny valid corpus entry: vanilla gups config, empty op schedule."""
    scenario = FuzzScenario(config=FuzzConfig(), schedule=OpSchedule(ops=()))
    entry = {"schema": CORPUS_SCHEMA, "scenario": scenario.to_json()}
    entry.update(extra)
    return entry


class TestBankedCorpusReplays:
    """The committed corpus is the fuzzer's permanent regression suite."""

    def test_committed_corpus_exists(self):
        assert DEFAULT_CORPUS_DIR.is_dir()
        assert list(DEFAULT_CORPUS_DIR.glob("*.json")), \
            "the seed corpus should ship at least one banked reproducer"

    def test_corpus_replays_clean_on_healthy_build(self):
        report = replay_corpus()
        assert report["skipped"] == 0, "committed corpus entries must all load"
        assert report["entries"] >= 1
        assert report["failures"] == [], (
            "banked reproducers fail again: " + json.dumps(report["failures"]))

    def test_committed_entries_are_minimal_and_provenanced(self):
        entries, skipped = load_corpus()
        assert skipped == 0
        for path, entry in entries:
            scenario = FuzzScenario.from_json(entry["scenario"])
            assert len(scenario.schedule) <= 8, f"{path.name}: not shrunk"
            # Entries banked before the translation check carry the
            # VPN-cache off/on divergence that found them.
            assert "violation" in entry or "divergence" in entry, \
                f"{path.name}: missing oracle record"
            assert "found" in entry, f"{path.name}: missing provenance"
            assert path.stem == entry_name(entry), \
                f"{path.name}: filename drifted from its content hash"


class TestAtomicBanking:
    def test_save_leaves_no_tmp_remnants(self, tmp_path):
        path = save_entry(minimal_entry(), corpus_dir=tmp_path)
        assert path.parent == tmp_path
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [path.name]
        assert not any(n.endswith(".tmp") for n in names)
        # The write is complete JSON, not a torn prefix.
        assert load_entry(path)["schema"] == CORPUS_SCHEMA

    def test_refinding_same_scenario_overwrites_not_duplicates(self, tmp_path):
        first = save_entry(minimal_entry(found={"fuzz_seed": 1}),
                           corpus_dir=tmp_path)
        second = save_entry(minimal_entry(found={"fuzz_seed": 99}),
                            corpus_dir=tmp_path)
        assert first == second, "same scenario must hash to the same filename"
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert load_entry(first)["found"] == {"fuzz_seed": 99}

    def test_different_schedules_get_different_files(self, tmp_path):
        save_entry(minimal_entry(), corpus_dir=tmp_path)
        mutated = FuzzScenario(
            config=FuzzConfig(),
            schedule=OpSchedule(ops=(KernelOpSpec("reclaim", 5, {"pages": 2}),)))
        save_entry({"schema": CORPUS_SCHEMA, "scenario": mutated.to_json()},
                   corpus_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestCorruptEntriesNeverCrash:
    def corrupted_dir(self, tmp_path: Path) -> Path:
        save_entry(minimal_entry(), corpus_dir=tmp_path)
        (tmp_path / "truncated.json").write_text('{"schema": "fuzz_repro/v1", "scen')
        (tmp_path / "not-a-dict.json").write_text('[1, 2, 3]')
        (tmp_path / "alien-schema.json").write_text(
            json.dumps({"schema": "fuzz_repro/v999", "scenario": {}}))
        (tmp_path / "no-scenario.json").write_text(
            json.dumps({"schema": CORPUS_SCHEMA}))
        return tmp_path

    def test_load_corpus_skips_each_with_warning(self, tmp_path):
        directory = self.corrupted_dir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries, skipped = load_corpus(directory)
        assert len(entries) == 1
        assert skipped == 4
        corpus_warnings = [w for w in caught
                           if issubclass(w.category, CorpusWarning)]
        assert len(corpus_warnings) == 4
        warned_files = {str(w.message).split(":")[0] for w in corpus_warnings}
        assert "skipping corpus entry truncated.json" in warned_files

    def test_replay_survives_corrupt_entries(self, tmp_path):
        directory = self.corrupted_dir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorpusWarning)
            report = replay_corpus(directory)
        assert report["entries"] == 1
        assert report["skipped"] == 4
        assert report["failures"] == []

    def test_missing_corpus_dir_is_empty_not_fatal(self, tmp_path):
        entries, skipped = load_corpus(tmp_path / "never-created")
        assert entries == [] and skipped == 0

    def test_load_entry_is_strict(self, tmp_path):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/v1", "scenario": {}}))
        with pytest.raises(ValueError, match="not a fuzz_repro/v1"):
            load_entry(wrong)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"schema": CORPUS_SCHEMA}))
        with pytest.raises(ValueError, match="no scenario"):
            load_entry(bare)
