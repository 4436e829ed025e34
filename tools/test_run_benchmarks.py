#!/usr/bin/env python3
"""Unit tests for tools/run_benchmarks.py's git_rev() stamp, each in a
throwaway git repository: clean, dirty, and changed only in the driver's own
output files. Run directly or through ctest (test_run_benchmarks)."""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run_benchmarks  # noqa: E402


def git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


class GitRevStamp(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = self.tmp.name
        git(self.repo, "init", "-q")
        for name in ("code.cpp", "BENCH_kernels.json", "BENCH_REPORT.md",
                     "BENCH_HISTORY.jsonl"):
            self.write(name, "v1\n")
        git(self.repo, "add", "-A")
        git(self.repo, "commit", "-q", "-m", "init")
        self.head = git(self.repo, "rev-parse", "--short=12", "HEAD").strip()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, text):
        with open(os.path.join(self.repo, name), "w") as f:
            f.write(text)

    def test_clean_tree_is_head(self):
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head)

    def test_changed_tracked_file_is_dirty(self):
        self.write("code.cpp", "v2\n")
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head + "-dirty")

    def test_staged_change_is_dirty(self):
        self.write("code.cpp", "v2\n")
        git(self.repo, "add", "code.cpp")
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head + "-dirty")

    def test_driver_outputs_alone_stay_clean(self):
        for name in ("BENCH_kernels.json", "BENCH_REPORT.md", "BENCH_HISTORY.jsonl"):
            self.write(name, "v2\n")
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head)
        self.write("code.cpp", "v2\n")
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head + "-dirty")

    def test_untracked_file_does_not_count(self):
        self.write("scratch.txt", "x\n")
        self.assertEqual(run_benchmarks.git_rev(self.repo), self.head)

    def test_not_a_repository(self):
        with tempfile.TemporaryDirectory() as bare:
            self.assertEqual(run_benchmarks.git_rev(bare), "unknown")


if __name__ == "__main__":
    unittest.main()
