"""Experiment harness: configuration, studies, reports, CLI.

Each name is imported from the module that defines it
(``from gplb.harness.study import run_rate_study``); this package
re-exports nothing.
"""
