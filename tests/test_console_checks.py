"""Every console check of ``console_checks``, run as a tier-1 test."""

import inspect

import pytest

import console_checks


@pytest.mark.parametrize(
    "check", console_checks.CHECKS, ids=lambda check: check.__name__
)
def test_console_check(check, tmp_path):
    check(tmp_path)


def test_every_check_function_is_listed_once():
    defined = [
        name
        for name, value in vars(console_checks).items()
        if name.startswith("check_") and inspect.isfunction(value)
    ]
    listed = [check.__name__ for check in console_checks.CHECKS]
    assert sorted(listed) == sorted(defined)
