#!/bin/sh
# Usage-error check for defrag-cli (the cli_usage_errors ctest entry).
#
#   cli_usage_errors.sh <defrag-cli>
#
# Each malformed argument below must make `defrag-cli backup` exit with
# status exactly 2 and a message on stderr, before any backup runs. An
# abort (status 134) or a silently wrapped value fails the check.
set -u

CLI=$1
fail=0

expect_usage_error() {
  err=$("$CLI" backup --engine ddfs --files 8 "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ] || [ -z "$err" ]; then
    echo "FAIL: backup $* -> status $status, stderr '$err'"
    fail=1
  else
    echo "ok: backup $* -> status 2: $err"
  fi
}

expect_usage_error --generations abc
expect_usage_error --generations -1
expect_usage_error --generations 4294967296
expect_usage_error --generations 2x
expect_usage_error --seed +5
expect_usage_error --alpha nan
expect_usage_error --gc-keep 0

exit $fail
