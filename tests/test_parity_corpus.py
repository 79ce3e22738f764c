"""Every argv of the byte-parity corpus emits the bytes it recorded."""

import pytest

import parity_corpus as pc

CORPUS = pc.load()
FIELDS = ("exit", "stdout", "output", "error")


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return pc.run_corpus([e["argv"] for e in CORPUS["entries"]], CORPUS["inputs"],
                         tmp_path_factory.mktemp("corpus"))


def test_the_corpus_lists_the_script_argvs_and_inputs():
    # an argv added to parity_corpus.py needs a rewrite of the data file
    assert [e["argv"] for e in CORPUS["entries"]] == pc.ARGVS
    assert CORPUS["inputs"] == pc.INPUTS


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=lambda e: pc.entry_id(e["argv"]))
def test_cli_output_matches_the_corpus(entry, observed):
    want = {k: entry[k] for k in FIELDS}
    assert observed[pc.entry_id(entry["argv"])] == want, (
        f"digests recorded with {CORPUS['versions']}, this run has {pc.versions()}")
