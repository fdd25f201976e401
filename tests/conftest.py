"""Shared paths and helpers for the test suite."""

import os

import pytest

from assetscout.design import build_database
from assetscout.parser import discover_rtl_files, parse_file, parse_source

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TESTS_DIR, "fixtures")

SPLITTER_DIR = os.path.join(FIXTURES, "data_splitter")
SPLITTER_FILE = os.path.join(SPLITTER_DIR, "data_splitter.v")
SPLITTER_TRUTH = os.path.join(FIXTURES, "data_splitter_truth.csv")
MINI_CORPUS = os.path.join(FIXTURES, "mini_corpus")

# bundled mini-corpus IPs and the family config each one targets
CORPUS_FAMILIES = {
    "toy_cipher": "crypto",
    "gpio_block": "gpio",
    "uart_lite": "peripheral",
}


def parse_tree(root):
    """Parse every RTL file under a directory root, as the CLI does."""
    return [parse_file(p, [root]) for p in discover_rtl_files(root)]


def build_db(text, path="<test>"):
    """Parse one source string and wrap it in a DesignDatabase."""
    return build_database([parse_source(text, path)])


@pytest.fixture(scope="session")
def splitter_unit():
    return parse_file(SPLITTER_FILE)


@pytest.fixture(scope="session")
def splitter_db(splitter_unit):
    return build_database([splitter_unit])
