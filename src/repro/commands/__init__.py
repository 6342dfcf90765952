"""The bodies of the ``repro`` subcommands, one module each.

:mod:`repro.cli` builds the parser and imports the one module that runs
the command given, so ``repro check`` never compiles the daemon's,
the replayer's or the generator's handler.  Each module's ``run(args)``
returns the process exit code.
"""

__all__: list = []
