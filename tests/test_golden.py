"""The corpus of tests/golden.py against tests/golden.json: no output's bytes move unnoticed.

A change that moves bytes on purpose rewrites the file with
``python tests/golden.py --write``, so its diff shows which outputs and
which law regions moved.
"""

import numpy as np
import pytest

import golden


def digests_or_skip(version: str) -> dict:
    """The file's digests for a numpy version; a version with no entry skips, naming itself."""
    table = golden.load().get(version)
    if table is None:
        pytest.skip(f"tests/golden.json holds no digests for numpy {version} (numpy streams may differ"
                    " across versions, NEP 19); record them with `python tests/golden.py --write`")
    return table


def test_outputs_match_the_golden_file():
    expected = digests_or_skip(np.__version__)
    got = golden.corpus()
    assert sorted(got) == sorted(expected)
    assert [key for key in got if got[key] != expected[key]] == []


def test_a_numpy_version_without_digests_is_skipped_by_name():
    with pytest.raises(pytest.skip.Exception, match="no digests for numpy 0.0.0"):
        digests_or_skip("0.0.0")
