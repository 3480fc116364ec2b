#!/usr/bin/env bash
# Offline verification: build, test, lint and document the whole workspace.
# No network access required — the workspace has zero external
# dependencies (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> OK"
