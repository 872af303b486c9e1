#!/bin/sh
# Regenerates every table and figure of the paper at the scales
# EXPERIMENTS.md records (most binaries take [runs] [packets-or-ops]).
set -e
BIN="cargo run --release -q -p bench --bin"
echo "================ Table 1 ================";  $BIN table01_cachespec
echo "================ Fig. 4 ================";   $BIN fig04_hash 1 512
echo "================ Fig. 5 ================";   $BIN fig05_latency 50
echo "================ Fig. 6 ================";   $BIN fig06_speedup 20 10000
echo "================ Fig. 7 ================";   $BIN fig07_ops 1 15000
echo "================ Fig. 8 ================";   $BIN fig08_kvs 1 100000 21
echo "================ §8 migration (hot-set churn) ================"; $BIN fig08_kvs 1 100000 21 --zipf=0.99 --churn=4096 --cores=4
echo "================ §4.2 headroom ================"; $BIN headroom_dist 1 16384
echo "================ Fig. 12 ================";  $BIN fig12_lowrate 10 5000
echo "================ Fig. 13 / Table 3a ================"; $BIN fig13_forward 10 120000
echo "================ Figs. 1+14 / Table 3b ================"; $BIN fig14_chain 10 120000
echo "================ Fig. 15 ================";  $BIN fig15_knee 1 50000
echo "================ Overload knee (open-loop KVS) ================"; $BIN fig_knee_kvs 1 30000
echo "================ Overload chaos ================"; $BIN fig_knee_kvs 1 30000 --chaos
echo "================ Fig. 16 / Table 4 ================"; $BIN fig16_table4_skylake 10
echo "================ Fig. 17 ================";  $BIN fig17_isolation 1 40000
echo "================ Multi-tenant SLO defense ================"; $BIN fig_tenants 1 20000
echo "================ Scale study (million-key KVS) ================"; $BIN fig_scale_kvs 1 1000000 21
echo "================ §6 Skylake NFV ================"; $BIN skylake_nfv 5 120000
echo "================ §8 pipelined compromise ================"; $BIN ext_pipeline 1 60000
