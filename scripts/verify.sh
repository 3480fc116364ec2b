#!/usr/bin/env bash
# Offline verification: build, test, run the verdict-asserting examples,
# format-check, lint and document the whole workspace, and check that the
# benchmark still builds against it.
# No network access required — the workspace has zero external
# dependencies (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

# The benchmark is a workspace of its own that builds the product crates
# by path, so a removed public item breaks it without breaking the above.
echo "==> cargo check --manifest-path bench/Cargo.toml --all-targets"
cargo check --manifest-path bench/Cargo.toml --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# These four examples assert their own verdicts, and each drives one VC
# generator end to end: quickstart and catch_miscompilations the ISel one,
# cross_language the IMP one, validate_regalloc the regalloc one (spilled
# and unspilled).
for example in quickstart cross_language validate_regalloc catch_miscompilations; do
    echo "==> cargo run --release --quiet --example $example"
    cargo run --release --quiet --example "$example"
done

# One formatting configuration: the root rustfmt.toml matches
# bench/rustfmt.toml, so both workspaces must already be formatted.
echo "==> cargo fmt --all --check (workspace and bench)"
cargo fmt --all --check
cargo fmt --manifest-path bench/Cargo.toml --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> OK"
