"""Run `ionqsim.cli.main` with spans, for traced cli-readme calls.

Usage: python cli_boot.py SPANS.npz CALL_ID -- <ionqsim arguments>

Installs the same wrappers as an in-process traced run, runs the CLI,
writes the spans to SPANS.npz and exits with the CLI's exit code.
"""

import sys

import spans


def main():
    path, call_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_boot.py SPANS.npz CALL_ID -- ARGS...")
    tracer = spans.Tracer()
    tracer.install()
    tracer.call_id = int(call_id)
    import ionqsim.cli
    sys.argv = ["ionqsim"] + argv
    code = 0
    try:
        ionqsim.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.save(path)
    sys.exit(code)


if __name__ == "__main__":
    main()
