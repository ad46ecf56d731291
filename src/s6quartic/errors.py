"""The error of a configuration or usage problem.

It has a module of its own because `checks` raises it and `cli` reports
it: a command that does not run the checks, such as `eval`, can catch it
without loading the registry and the geometry it imports.
"""


class ConfigError(ValueError):
    """A configuration or usage problem; maps to process exit code 2."""
