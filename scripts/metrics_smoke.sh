#!/usr/bin/env bash
# Metrics smoke: boot a metrics-enabled keq_serve daemon on a free port,
# drive real load through keq_client, render one keq_top frame, scrape the
# Prometheus exposition through the `metrics` op, and validate its shape —
# every sample line parses, the core counter families are present, and the
# slow-obligation table made it into the scrape with fingerprints. No
# validation request arrives between the scrape and the shutdown, so the
# scraped request counters must equal the ones the drain line prints.
#
# Artifacts (uploaded by CI): metrics_serve.log, keq_top.txt,
# metrics_scrape.prom.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build daemon, client, dashboard"
cargo build --release --example keq_serve --example keq_client --example keq_top

echo "==> boot keq_serve --metrics"
target/release/examples/keq_serve --addr 127.0.0.1:0 --metrics \
    --metrics-interval-ms 100 > metrics_serve.log &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' metrics_serve.log)
    [ -n "$addr" ] && break
    sleep 0.2
done
[ -n "$addr" ] || { echo "server never printed its address"; cat metrics_serve.log; exit 1; }

echo "==> drive load through $addr"
target/release/examples/keq_client 6 --addr "$addr" --repeat 2 --conns 2

echo "==> one keq_top frame"
target/release/examples/keq_top --addr "$addr" --once | tee keq_top.txt
grep -q "metrics ON" keq_top.txt
grep -q "slowest obligations (by wall time)" keq_top.txt

echo "==> scrape the Prometheus exposition"
target/release/examples/keq_top --addr "$addr" --prom > metrics_scrape.prom

echo "==> graceful drain (no further validation requests)"
target/release/examples/keq_client 0 --addr "$addr" --shutdown
wait "$serve_pid"
grep -q "keq-server drained" metrics_serve.log

echo "==> validate the scrape"
python3 - << 'EOF'
import re
samples, metrics, helped, typed = 0, set(), set(), set()
for line in open('metrics_scrape.prom'):
    line = line.rstrip('\n')
    assert line, 'blank line inside the exposition'
    if line.startswith('# HELP '):
        helped.add(line.split(' ', 3)[2])
        continue
    if line.startswith('# TYPE '):
        typed.add(line.split(' ', 3)[2])
        continue
    name_part, _, value = line.rpartition(' ')
    if value != '+Inf':
        float(value)  # every sample value parses
    metric = name_part.split('{', 1)[0]
    assert metric.startswith('keq_'), f'bad metric name: {line}'
    metrics.add(metric.removesuffix('_bucket').removesuffix('_count'))
    samples += 1
assert samples > 40, f'exposition unexpectedly small: {samples} samples'
required = {
    'keq_requests_total', 'keq_requests_completed_total', 'keq_queue_depth',
    'keq_obcache_hits_total', 'keq_request_latency_us',
    'keq_slow_obligation_wall_us',
}
missing = required - metrics
assert not missing, f'missing metric families: {sorted(missing)}'
# Every exposed family carries its HELP and TYPE header.
assert metrics <= helped and metrics <= typed, (
    f'families without headers: {sorted((metrics - helped) | (metrics - typed))}')
slow = [l for l in open('metrics_scrape.prom')
        if l.startswith('keq_slow_obligation_wall_us{')]
assert slow, 'slow-obligation table absent from the scrape'
assert all('fingerprint="' in l and 'result="' in l for l in slow), slow
# The scrape and the drain line count the same requests.
scraped = {}
for line in open('metrics_scrape.prom'):
    name, _, value = line.strip().rpartition(' ')
    if name in ('keq_requests_total', 'keq_requests_completed_total'):
        scraped[name] = int(float(value))
drained = re.search(r'keq-server drained: \d+ connections, (\d+) requests \((\d+) completed',
                    open('metrics_serve.log').read())
assert drained, 'no drain line in metrics_serve.log'
requests, completed = int(drained.group(1)), int(drained.group(2))
assert scraped == {'keq_requests_total': requests,
                   'keq_requests_completed_total': completed}, (
    f'scrape {scraped} disagrees with the drain line: {requests} requests, '
    f'{completed} completed')
print(f'metrics smoke OK: {samples} samples, {len(metrics)} families, '
      f'{len(slow)} slow-obligation rows, {requests} requests agree with the drain')
EOF

echo "==> OK"
