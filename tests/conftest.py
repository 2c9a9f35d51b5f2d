import pytest


def _assert_same_lines(got: str, want: str) -> None:
    """Fail at the first line that differs, quoting both versions of it.

    A bare == on two multi-megabyte texts makes pytest diff them for minutes.
    """
    got, want = got.splitlines(True), want.splitlines(True)
    for number, (a, b) in enumerate(zip(got, want), 1):
        if a != b:
            pytest.fail(f"line {number} differs:\n   got {a!r}\n  want {b!r}")
    if len(got) != len(want):
        pytest.fail(f"{len(got)} lines, want {len(want)}")


@pytest.fixture(scope="session")
def same_lines():
    """Assert two texts byte-identical, reporting the first differing line."""
    return _assert_same_lines
