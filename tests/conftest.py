"""Shared paths and helpers for the test suite."""

import importlib.util
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
BENCH_DIR = os.path.join(os.path.dirname(TESTS_DIR), "bench")

# bundled mini-corpus IPs and the family config each one targets
CORPUS_FAMILIES = {
    "toy_cipher": "crypto",
    "gpio_block": "gpio",
    "uart_lite": "peripheral",
}


def parse_tree(root):
    """Parse every RTL file under a directory root, as the CLI does."""
    return [parse_file(p, [root]) for p in discover_rtl_files(root)]


def bench_gen():
    """bench/gen.py, loaded by its path: the benchmark's corpus generator."""
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(BENCH_DIR, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_db(text, path="<test>"):
    """Parse one source string and wrap it in a DesignDatabase."""
    return build_database([parse_source(text, path)])


@pytest.fixture(scope="session")
def seed1_workload(tmp_path_factory):
    """Workload name -> (CLI args, parsed units) of its seed-1 benchmark
    corpus, generated and parsed on first use."""
    gen = bench_gen()
    loaded = {}

    def load(name):
        if name not in loaded:
            manifest = gen.generate(name, 1, str(tmp_path_factory.mktemp(name)))
            loaded[name] = (manifest["args"], parse_tree(manifest["rtl_dir"]))
        return loaded[name]
    return load


@pytest.fixture(scope="session")
def splitter_unit():
    return parse_file(SPLITTER_FILE)


@pytest.fixture(scope="session")
def splitter_db(splitter_unit):
    return build_database([splitter_unit])
