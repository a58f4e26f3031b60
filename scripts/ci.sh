#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Regenerated reports land in a directory of this run's own, so two runs
# on one host do not clobber each other.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== entry-point guard: a feature is a Run field, not another function =="
# The survivors: seven in the drivers (the harness-pinned wrappers plus
# measure_gflops) and the batch driver's three (on a Backend, and the pinned
# exec and traced).
entry_points=$(cat crates/core/src/{driver,hier,repl,batch}.rs | grep -c 'pub fn \(multiply\|measure\)_')
[ "$entry_points" -le 10 ] || { echo "FAIL: $entry_points multiply_*/measure_* drivers (max 10 = 7 + 3); add a field to core::run::Run" >&2; exit 1; }

echo "== retired-tuner guard: a stream runs at the depth its options say =="
if grep -rn 'Tuner\|with_tuner\|_tuned' crates src tests examples; then
    echo "FAIL: the online tuner is back (see above; EXPERIMENTS.md, \"Retired: the online tuner\")" >&2; exit 1
fi

echo "== retired-profile guard: a run reads its SrummaOptions and SRUMMA_KERNEL, nothing on disk =="
# Not under scripts/, so the guard does not match itself.
if grep -rn 'HostProfile\|from_profile\|host_profile\|configure_gemm\|with_gemm' crates src tests examples; then
    echo "FAIL: the host profile or the per-run gemm override is back (see above; EXPERIMENTS.md, \"Retired: the host profile\")" >&2; exit 1
fi

echo "== doc-path guard: every backticked *.rs path in README.md and DESIGN.md is a file =="
# A path names a file from the root (`crates/core/src/run.rs`) or, the
# way prose about one crate does, by its last components (`exec.rs`,
# `tests/run_plan.rs`).
missing=0
for path in $(grep -ohE '`[A-Za-z0-9_./-]+\.rs`' README.md DESIGN.md | tr -d '`' | sort -u); do
    [ -n "$(find . \( -name target -o -name .git \) -prune -o -path "*/$path" -print -quit)" ] ||
        { echo "  no such file: $path" >&2; missing=1; }
done
[ "$missing" -eq 0 ] || { echo "FAIL: README.md / DESIGN.md name source files that do not exist (see above)" >&2; exit 1; }

echo "== doc-item guard: every backticked Type::item or module::item in README.md and DESIGN.md is defined =="
# A name the docs call by its path (`Run::execute`, `layout::with_fresh_c`)
# must be defined under crates/ or src/: both components, as an fn, type,
# trait, const, static, module, field, variant or `as` alias (a crate
# name, `srumma_dense`, stands for its directory). A retired name left in
# prose describes a program that no longer exists. std, core and mem
# paths are not this repo's.
undefined=0
for path in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*`' README.md DESIGN.md | tr -d '`' | sort -u); do
    owner=${path%%::*} item=${path##*::}
    case "$owner" in std | core | mem) continue ;; esac
    [ -d "crates/${owner#srumma_}" ] && owner=
    for name in $owner $item; do
        grep -rqE --include='*.rs' "\b(fn|struct|enum|trait|type|const|static|mod)[[:space:]]+$name\b|\bas $name;|^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?$name\b[[:space:]]*([:,({]|\$)" crates src ||
            { echo "  no such item: $path" >&2; undefined=1; break; }
    done
done
[ "$undefined" -eq 0 ] || { echo "FAIL: README.md/DESIGN.md name an item nothing defines (see above)" >&2; exit 1; }

echo "== rank-program guard: one program per schedule, one stride =="
# Every SRUMMA schedule is one RankProgram that the executor polls and
# the blocking backends drive; a second hand-written copy of a rank
# loop is how they drift apart.
if grep -rn 'run_rank_blocking\|HierRankTask' crates; then
    echo "FAIL: a hand-written twin of a rank program is back (see above)" >&2; exit 1
fi
strides=$(cat crates/core/src/*.rs | grep -c 'const STRIDE')
[ "$strides" -eq 1 ] || { echo "FAIL: $strides 'const STRIDE' under crates/core/src (want 1): poll granularity is the program's, not each host's" >&2; exit 1; }

echo "== landing guard: one routine lands a fetched block, and a get is one method =="
# Where a get puts its block (row-major, or packed for the kernel) is
# DistMatrix::land_block's decision, in dist.rs. A backend or the task
# loop that copies or packs a block itself is a second landing path
# whose counters, cost model and fault injection can drift; a second get
# method beside Comm::nbget is one a decorator can forget to forward.
if grep -n 'copy_block_into\|pack_a(\|pack_b(' \
    crates/comm/src/{exec,simbackend,virt}.rs crates/core/src/srumma.rs; then
    echo "FAIL: a backend or the SRUMMA task loop moves block data itself (see above); go through DistMatrix::land_block" >&2; exit 1
fi
if grep -rn 'nbget_packed' crates src tests examples; then
    echo "FAIL: a second get method is back (see above); Comm::nbget takes a Landing" >&2; exit 1
fi

echo "== host guard: one wall-clock communicator, ranks polled or under permits =="
# Thread-per-rank is the executor with a worker per rank (Backend::Exec with
# workers = nranks; exec::thread_run for closures); a second wall-clock Comm, or a worker lending
# its slot to a blocking rank, is the retired design coming back. So are
# work-stealing deques, fence retirement and the multi-fence split pair:
# workers claim ranks from counters, and the one barrier has generations.
if grep -rn 'ThreadComm\|PoisonBarrier\|ThreadRunResult\|thread_launch\|grant_and_lend\|gate_wait_grant\|WorkDeque\|retire_rank\|fence_retire\|fn fence_try\|fn fence_arrive(&mut self)' \
    crates src tests examples; then
    echo "FAIL: a retired host name is back (see above; EXPERIMENTS.md, \"One wall-clock communicator\", \"Claim counters\")" >&2; exit 1
fi

echo "== simulator hosting guard: a simulated rank costs its operations, not a thread =="
# Every rank under the simulator is a RankProgram: Run::launch hands every
# algorithm, flat, staged or replicated, traced or not, to
# sim_run_programs, which steps each rank on the calling thread in the
# kernel's (clock, rank) order; the kernel has one scheduling mode and
# starts no thread, and a simulated rank waits only in split calls. A
# virtual-clock rank is one iteration of virtual_run's parallel-for. A
# thread, a condvar or a blocking host in the simulator, Run::launch's
# Sim arm reaching for anything but sim_run_programs, or virt.rs reaching
# for the executor's task slots, is a thread or a slot per rank coming back.
if grep -rn 'run_sim\|sim_run(\|Condvar\|thread::' crates/sim/src crates/comm/src/simbackend.rs; then
    echo "FAIL: the simulator hosts ranks on threads again (see above); every simulated rank is a polled program" >&2; exit 1
fi
sim_arm=$(awk '/fn launch\(/,/^    }$/' crates/core/src/run.rs | awk '/Backend::Sim\(/,/^            }$/' | grep -v '^ *//')
[ "$(grep -c 'sim_run_programs(' <<<"$sim_arm")" -eq 1 ] &&
    ! grep -qE 'sim_run_steps|drive\(|exec_|thread|spawn|virtual_run|match |if self' <<<"$sim_arm" ||
    { echo "FAIL: the Backend::Sim arm of Run::launch does more than hand every rank to sim_run_programs:" >&2; echo "$sim_arm" >&2; exit 1; }
if grep -n 'exec_run_tasks\|RankTask' crates/comm/src/virt.rs; then
    echo "FAIL: comm/src/virt.rs hosts its ranks on the executor again (see above); virtual_run is a parallel-for" >&2; exit 1
fi

echo "== wall-clock hosting guard: a wall-clock rank costs a queue entry, not a thread =="
# Run::launch hosts every program on the wall-clock backend through one
# exec_run_tasks call, and drives a program only on the virtual clocks.
# Thread-per-rank is that backend with a worker per rank, and a batch runs
# on any backend through one multiply_batch_on: a Backend::Threads, a
# per-backend batch driver or a pool sized behind the caller's back (the
# retired 0 = auto worker sentinel) is the special case coming back. The
# permit-gated closure host survives only behind exec_run/thread_run, which
# benchmark/ pins; no library code names them, and the general blocking
# launcher is gone.
if grep -rn 'exec_launch\|exec_run(\|thread_run(' crates/core/src ||
    grep -n 'exec_launch' crates/comm/src/lib.rs; then
    echo "FAIL: library code hosts a rank on a blocking thread again (see above); poll it with exec_run_tasks" >&2; exit 1
fi
if grep -rn 'Backend::Threads\|multiply_batch(\|multiply_batch_sim' crates src tests examples ||
    grep -rn 'available_parallelism' crates/comm/src; then
    echo "FAIL: thread-per-rank is a special case again (see above); run Backend::Exec { workers: nranks }, multiply_batch_on, and an explicit worker count" >&2; exit 1
fi
launch_fn=$(awk '/fn launch\(/,/^    }$/' crates/core/src/run.rs | grep -v '^ *//')
virt_arm=$(awk '/Backend::Virtual \{/,/^            }$/' <<<"$launch_fn")
[ "$(grep -c 'exec_run_tasks(' <<<"$launch_fn")" -eq 1 ] &&
    [ "$(grep -c 'drive(' <<<"$launch_fn")" -eq "$(grep -c 'drive(' <<<"$virt_arm")" ] ||
    { echo "FAIL: Run::launch must make exactly one exec_run_tasks call and drive programs only in its Backend::Virtual arm:" >&2; echo "$launch_fn" >&2; exit 1; }

echo "== one-way-to-wait guard: a rank program waits only in the split calls =="
# Comm's only waits are barrier_try, recv_try and sendrecv_try, with no
# default body, so a program or decorator that gets waiting wrong fails to
# compile instead of hanging a worker or panicking the simulator. The
# blocking barrier/recv/sendrecv are ExecComm's own inherent methods, for
# the closures of the permit-gated host that benchmark/ pins; a backend,
# the decorator or the library defining one again is a second way to wait.
if grep -rn 'fn barrier(\|fn recv(\|fn sendrecv(' \
    crates/comm/src/{comm,simbackend,subcomm,virt}.rs crates/core/src; then
    echo "FAIL: a blocking wait is back beside the split calls (see above); write barrier_try/recv_try/sendrecv_try" >&2; exit 1
fi

echo "== fault guard: the communicator applies a fault plan, on either clock =="
# SimComm applies a FaultPlan in virtual time and ExecComm with real
# sleeps, each handed the plan by its launcher. A fault-injecting
# decorator, the blanket impl that let it wrap a borrowed communicator,
# or a rank body that picks one of them is the retired second route.
if grep -rn 'ChaosComm\|wall_body\|inner_mut\|Comm for &mut' crates src tests examples; then
    echo "FAIL: a retired fault-injection name is back (see above; DESIGN.md §13, \"Wall-clock injection\")" >&2; exit 1
fi

echo "== product guard: a run writes C where the caller reads it =="
# Run::execute lends the ranks the matrix it returns (layout::with_fresh_c;
# a replicated run lends it as team 0's C, ReplSet::create): no run builds
# a second C, and no program path gathers or scatters.
if grep -n 'dist_c(\|[^_]fresh_c(' crates/core/src/run.rs ||
    grep -n 'gather(\|scatter' crates/core/src/{run,repl,hier,batch}.rs; then
    echo "FAIL: a program path builds a second C, gathers or scatters again (see above); the product is lent in place" >&2; exit 1
fi
# A C window interleaves with its neighbours' in memory, so no `&mut [f64]`
# may span one: MatMut hands out slices a row at a time (row_mut), and the
# accessor that handed out the whole span (data_mut) is retired.
if grep -rn 'data_mut' crates src tests examples ||
    grep -rn 'from_raw_parts_mut' crates src tests examples | grep -v '^crates/dense/src/matrix.rs:' ||
    [ "$(grep -c 'from_raw_parts_mut' crates/dense/src/matrix.rs)" -ne 1 ]; then
    echo "FAIL: a mutable slice is built outside MatMut::row_mut, or MatMut::data_mut is back (see above)" >&2; exit 1
fi
# A batch output is allocated with capacity only and first written by its
# owners (core::batch::with_fresh_outputs): a zeroed one is the serial
# memset back, and a set_len anywhere else is a second place that vouches
# for memory nobody may have written.
if sed -n '/^fn run_batch/,/^}/p' crates/core/src/batch.rs | grep -n 'Matrix::zeros'; then
    echo "FAIL: run_batch zeroes its outputs again (see above); with_fresh_outputs allocates them" >&2; exit 1
fi
in_fresh=$(sed -n '/^unsafe fn with_fresh_outputs/,/^}/p' crates/core/src/batch.rs | grep -c 'set_len')
if [ "$in_fresh" -ne 1 ] || [ "$(grep -r 'set_len' crates/*/src | wc -l)" -ne 1 ]; then
    grep -rn 'set_len' crates/*/src >&2
    echo "FAIL: set_len outside core::batch::with_fresh_outputs (see above)" >&2; exit 1
fi

echo "== one-backing guard: every DistMatrix with elements is one row-major window =="
# An owned DistMatrix is a plain allocation behind the same window, base
# pointer and per-block AccessChecker a lent one uses. A second real
# backing, with its own regions, guards and unsafe, is the retired shared
# arena coming back.
if grep -rn 'SharedArena\|Backing::Real\|arena_for\|ReadGuard\|WriteGuard' crates src tests examples; then
    echo "FAIL: a retired arena name is back (see above; EXPERIMENTS.md, \"One backing for real data\")" >&2; exit 1
fi
unsafe_comm=$(cat crates/comm/src/*.rs | grep -c 'unsafe')
[ "$unsafe_comm" -le 6 ] || { echo "FAIL: $unsafe_comm lines with unsafe in crates/comm/src (max 6)" >&2; exit 1; }

echo "== operand guard: a host operand reaches the ranks one way, as a view =="
# Run::execute and ReplSet::create take both operands, and the spec to run
# over them, from layout::with_host_operands: the matrix a driver is handed
# is op(A) already, so nothing is scattered, whatever transa/transb say. A
# driver that builds an operand arena again is the copy coming back.
if grep -n 'scatter_operands(\|[^_]dist_a(\|[^_]dist_b(' crates/core/src/{run,repl}.rs; then
    echo "FAIL: core::run or core::repl copies a host operand again (see above); layout::with_host_operands lends views" >&2; exit 1
fi

echo "== one-layout guard: a distributed A or B is op(X) on the C grid =="
# One placement for every matrix (block (i, j) is rank i*q + j's) and one
# shape for every operand (op(A) is m x k, op(B) k x n), in all four
# transpose cases: transa/transb label the paper's case, and no rank
# program reads them. A second rank order, a transposing scatter, stored
# dimensions, or a rank program that reads a transpose flag is the
# retired stored-transpose layout coming back.
if grep -rn 'RankOrder\|ColMajor\|create_with_order\|scatter_transposed\|stored_dims' crates src tests examples; then
    echo "FAIL: a retired stored-transpose layout name is back (see above); every operand is op(X) on the C grid" >&2; exit 1
fi
if grep -n '\.trans[ab]\b' crates/core/src/{srumma,summa,cannon,hier,repl}.rs; then
    echo "FAIL: a rank program reads transa/transb (see above); its operands are op(A) and op(B)" >&2; exit 1
fi

echo "== batch guard: a batch entry reaches the ranks one way, as views =="
# run_batch lends every entry's operands (layout::with_host_operand_sets)
# and output (DistMatrix::with_host_views_mut) for the whole launch, and
# no rank waits for another. An arena, a staging or transposing copy, or
# a fence in the batch is the slot ring coming back.
if grep -n 'fence_arrive\|fence_try\|copy_transposed_from\|_in_arena' crates/core/src/batch.rs; then
    echo "FAIL: core::batch stages into an arena or fences again (see above); entries are lent in place" >&2; exit 1
fi
if grep -rn 'with_window\|batch_region_elems\|create_in_arena\|dist_c_in_arena' crates src tests examples; then
    echo "FAIL: a retired slot-ring name is back (see above; EXPERIMENTS.md, \"The batch stream in place\")" >&2; exit 1
fi

echo "== env-knob inventory: the SRUMMA_* names in code are README's knob table =="
in_code=$(grep -rhoE 'SRUMMA_[A-Z_]+' crates src tests scripts | sort -u)
in_table=$(grep -oE '^\| `SRUMMA_[A-Z_]+`' README.md | grep -oE 'SRUMMA_[A-Z_]+' | sort -u)
[ "$in_code" = "$in_table" ] || { echo "FAIL: SRUMMA_* knobs, code (<) vs README table (>):" >&2;
    diff <(echo "$in_code") <(echo "$in_table") >&2; exit 1; }

echo "== pack-free guard: one shape rule, no knob =="
# Whether dgemm_ws reads a side where it lies or packs it is decided by
# one function, blocked::reads_in_place, from the product's shape and
# the dispatched kernel. An environment read in the dense crate beside
# SRUMMA_KERNEL (kernel.rs) and the test seeds (prop.rs) would be a
# knob on it; a second definition or call site would be a second rule.
if grep -rn 'env::var' crates/dense/src --exclude=kernel.rs --exclude=prop.rs; then
    echo "FAIL: crates/dense/src reads the environment outside kernel.rs and prop.rs (see above)" >&2; exit 1
fi
rule_defs=$(cat crates/dense/src/*.rs | grep -c 'fn reads_in_place\b' || true)
rule_calls=$(cat crates/dense/src/*.rs | grep -v 'fn reads_in_place\b' | grep -v '^\s*//' |
    grep -c '\breads_in_place(' || true)
[ "$rule_defs" -eq 1 ] && [ "$rule_calls" -eq 1 ] ||
    { echo "FAIL: reads_in_place is defined $rule_defs and called $rule_calls times under crates/dense/src (want 1 and 1)" >&2; exit 1; }

echo "== surface guard: every pub fn is named outside its crate's library =="
# A `pub fn` under crates/*/src that no file outside its crate's library
# names (other crates, bins, tests, examples, the facade, benchmark/src)
# is `pub` for nobody, and `pub` hides it from rustc's dead-code lint:
# make it pub(crate), or delete it. #[cfg(test)] modules are skipped.
unnamed=0
for lib in crates/*/src; do
    decls=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*mod / { skip = 1; depth = 0 }
        { pending = 0 }
        skip { depth += gsub(/{/, "{") - gsub(/}/, "}"); if (depth <= 0 && /[{}]/) skip = 0; next }
        match($0, /^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z0-9_]+/) {
            name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
            print name " " FILENAME ":" FNR
        }' "$lib"/*.rs)
    [ -n "$decls" ] || continue
    used=$(find crates src tests examples benchmark/src -name '*.rs' | grep -v "^$lib/[^/]*\.rs$" |
        xargs grep -ohwF -f <(echo "$decls" | cut -d' ' -f1) | sort -u)
    while read -r name where; do
        grep -qxF "$name" <<<"$used" || { echo "  pub fn $name ($where) is named nowhere outside its crate" >&2; unnamed=$((unnamed + 1)); }
    done <<<"$decls"
done
[ "$unnamed" -eq 0 ] || { echo "FAIL: $unnamed pub fn(s) with no caller outside their crate (see above)" >&2; exit 1; }

echo "== rustdoc: the public docs build without a warning =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== anchor table: calibrate's stdout is results/calibrate.txt =="
# A deterministic model output: it moves only when a machine preset or
# an algorithm's modeled schedule does, and then the file moves with it.
cargo run --release -q -p srumma-bench --bin calibrate | diff results/calibrate.txt - ||
    { echo "FAIL: the anchor table moved (see above); if intended, regenerate results/calibrate.txt" >&2; exit 1; }

echo "== model outputs: each simulated figure reproduces its results/ files byte for byte =="
# Deterministic model outputs, like the anchor table: the stdout of
# `reproduce NAME` is results/NAME.txt and every CSV or JSON it writes is
# the file of that name in results/. Each figure runs with a results
# directory of its own, and every results/ file the figure owns must come
# back: NAME.* and BENCH_NAME.json, and for a figNN_* figure also figNN_*
# and BENCH_figNN_*. Two rows also assert the paper's claims beyond
# Fig. 10 and exit non-zero when one fails: `degradation` (SRUMMA's
# straggler degradation ratio stays below SUMMA's) and `hierarchy` (the
# 1k-64k crossover sweep: node-group staging moves fewer inter-node bytes
# than flat from 4096 ranks up). Each run is bounded, so a hang in a
# staging fence, a broadcast or a replica reduction fails instead of
# waiting.
for fig in fig03_pipeline fig04_diagshift fig05_direct_vs_copy fig06_bandwidth_x1 \
    fig07_overlap fig08_get_bandwidth fig09_zerocopy eq_model_check ablation_taskorder \
    ablation_buffers ablation_summa_bcast sensitivity memory_footprint degradation \
    hierarchy fig10_srumma_vs_pdgemm table1_best_cases; do
    dir="$out/model/$fig"
    mkdir -p "$dir"
    SRUMMA_RESULTS_DIR="$dir" timeout 300 cargo run --release -q -p srumma-bench --bin reproduce -- "$fig" >"$dir/$fig.txt"
    for file in "$dir"/*; do
        cmp "$file" "results/${file##*/}" || {
            echo "FAIL: $fig: ${file##*/} is not results/${file##*/}; if the model moved on purpose, regenerate it with scripts/reproduce.sh" >&2
            exit 1
        }
    done
    owned=(results/"$fig".* results/BENCH_"$fig".json)
    case "$fig" in fig[0-9][0-9]_*) owned+=(results/"${fig%%_*}"_* results/BENCH_"${fig%%_*}"_*) ;; esac
    for file in "${owned[@]}"; do
        [ -e "$file" ] || continue # a pattern that matched nothing
        [ -e "$dir/${file##*/}" ] || {
            echo "FAIL: $fig did not write ${file##*/}, which results/ holds for it" >&2
            exit 1
        }
    done
done

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo test, once per available kernel flavor =="
# The default pass above runs under auto dispatch; here every kernel
# the host can run gets its own full-suite pass (scalar always, avx2/
# avx512/neon where available), so a flavor-specific miscompile cannot
# hide behind the dispatched favorite.
for flavor in $(cargo run --release -q -p srumma-bench --bin calibrate -- --list-kernels); do
    echo "--  SRUMMA_KERNEL=$flavor"
    SRUMMA_KERNEL="$flavor" cargo test -q --workspace
done

echo "== benchmark harness: unit tests + a bounded contract run per workload =="
# benchmark/ is a workspace of its own, so nothing above builds it. It
# calls a pinned list of public functions (benchmark/README.md, last
# section); compiling it and running every BENCHMARK.json workload for
# two seconds — each op's output is checked — makes a break of that
# surface fail here instead of in the pipeline that runs the benchmark.
cargo test --release -q --manifest-path benchmark/Cargo.toml
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
[ -n "$workloads" ] || { echo "FAIL: no workloads found in BENCHMARK.json" >&2; exit 1; }
for workload in $workloads; do
    echo "--  $workload"
    result=$(timeout 300 cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case "$result" in
        *'"failed": 0'*) ;;
        *) echo "FAIL: benchmark workload $workload: $result" >&2; exit 1 ;;
    esac
    # All three host matrices are distributed in place, in every transpose
    # case and in every entry of a batch: an op holds A, B and the
    # product, never a second copy of any of them. Peak RSS repeats to
    # < 1 % under the harness's allocator policy (77 / 22 / 42 / 23.2 MB
    # here on the four workloads below; 93 / 27 with a C arena beside the
    # gathered C, 129 / 36 when both operands were scattered into arenas
    # too, 60 on rect_tn with its stored-T A transposed into one,
    # 24.3–24.7 on batch_stream with its 3-slot ring arena), so a ceiling
    # between today's reading and the nearest of those fails the day a
    # copy comes back — where a wall-clock gate would only warn.
    case "$workload" in
        square_large) rss_ceiling=85 ;;
        manyrank_copy) rss_ceiling=24.5 ;;
        rect_tn) rss_ceiling=50 ;;
        batch_stream) rss_ceiling=24 ;;
        *) rss_ceiling= ;;
    esac
    if [ -n "$rss_ceiling" ]; then
        rss=$(echo "$result" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
        awk -v rss="$rss" -v max="$rss_ceiling" 'BEGIN { exit !(rss != "" && rss + 0 < max) }' || {
            echo "FAIL: $workload peak_rss_mb ${rss:-missing} (ceiling $rss_ceiling): an operand or the product is being copied again" >&2
            exit 1
        }
    fi
    # What was fetched and what was read in place are exact counts (the
    # traced run prints them): under ForceCopy every one of the 1 024
    # blocks of an op is still a get of its 73 728 bytes, however it
    # lands; the other host workloads read every block in place and
    # issue none. sim_scale's simulated makespan, speed-up and virtual
    # inter-node bytes are model outputs, printed to the last digit: the
    # harness only compares an op with the same process's first, so a
    # model drift would pass it.
    case "$workload" in
        manyrank_copy) wants="comm.transfers=1024 comm.bytes_fetched=75497472" ;;
        square_large | rect_tn | batch_stream) wants="comm.transfers=0 comm.bytes_fetched=0" ;;
        sim_scale) wants="sim_makespan_s=2.1232885038246407 sim_speedup_vs_summa=2.1173130749008897
            model.virt_internode_bytes_flat=15971909632 model.virt_internode_bytes_hier=9395240960" ;;
        *) continue ;;
    esac
    traced=$(timeout 300 cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    for want in $wants; do
        case "$traced" in
            *"\"${want%=*}\": {\"value\": ${want#*=},"*) ;;
            *) echo "FAIL: $workload: want ${want%=*} = ${want#*=} in the traced result line" >&2; exit 1 ;;
        esac
    done
done

echo "== oversubscription smoke: 128 ranks on 2 workers =="
# Deadlocks in the work-stealing executor (lost wakeups, barrier bugs)
# hang rather than fail — bound the run so they fail CI fast instead.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_executor_scaling -- --smoke

echo "== split-barrier pass: decorators, blocking polling, polled and driven programs =="
# A blocking rank that polls while holding its permit, a program parked
# where nothing wakes it: both hang rather than fail, so the tests that pin
# them run once more, bounded, with the decorator's (a decorator that drops
# a split call does not compile; one that drops another method is caught).
# run_plan also holds the in-place ≡ owned-copy differentials (operands and
# product: 144 plans, each run twice on Sim, a worker per rank and Exec on
# two), bounded here
# for the same reason.
timeout 300 cargo test -q --release -p srumma-comm --test exec --test decorators
timeout 300 cargo test -q --release -p srumma-core --test run_plan

echo "== batched-stream smoke: 32-entry batch on 2 workers =="
# Every entry's output is lent to the ranks in place, each tile written
# by its owner only: a tile no owner wrote fails the serial check here,
# and a second writer of a tile panics in the view's AccessChecker.
# Bounded all the same, like every executor run.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_batched_gemm -- --smoke

echo "== block-sparse smoke: density 25% on 2 workers =="
# Masked task generation prunes gets/packing/gemm for dead blocks; a
# pruning bug either corrupts C (serial-checked here) or strands a rank
# with no surviving work short of the closing barrier of a standalone
# multiply (deadlock — bounded run).
# Run under both kernel dispatch modes: the masked path must not
# depend on which microkernel survives.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_sparse_gemm -- --smoke
timeout 300 env SRUMMA_KERNEL=scalar cargo run --release -q -p srumma-bench \
    --bin bench_sparse_gemm -- --smoke

echo "== chaos pass: fault injection under fixed-seed plans =="
# The chaos suite injects stragglers, spiked gets and a rank death
# (with task re-execution) from seeded FaultPlans. Its failure modes
# are deadlocks (a retired fence not advancing, a lost wakeup after a
# death announcement) — bounded with timeout so they fail fast. Run
# under both kernel dispatch modes: re-executed tasks must be bitwise
# identical to the healthy run whichever microkernel executes them.
timeout 300 cargo test -q --release -p srumma --test property_chaos
timeout 300 env SRUMMA_KERNEL=scalar cargo test -q --release -p srumma --test property_chaos
# Determinism of the schedule itself: the same seeded plans twice —
# same pass/fail, and the suite's reproducibility test asserts
# bit-identical virtual-time results internally.
timeout 300 cargo test -q --release -p srumma --test property_chaos

echo "== schedule soak: the executor suites 20 times each =="
# A schedule-dependent hang or lost wake shows in one run in many, not
# in every run: repeat the executor's own tests and the multiply-level
# ones, each run bounded, so such a bug fails CI rather than one run in
# twenty.
for i in $(seq 20); do
    timeout 300 cargo test -q --release -p srumma-comm --test exec >/dev/null \
        || { echo "FAIL: srumma-comm --test exec, soak run $i" >&2; exit 1; }
    timeout 300 cargo test -q --release -p srumma-core --test exec_multiply >/dev/null \
        || { echo "FAIL: srumma-core --test exec_multiply, soak run $i" >&2; exit 1; }
done

echo "== perf gate (hard): dense gemm kernel =="
# Regenerate the kernel bench quickly and diff against the checked-in
# baseline. The hard gate covers the simd-over-scalar speedup ratios:
# numerator and denominator run on the same host, so the ratio is
# stable where absolute GFLOP/s are not. Regressions FAIL CI by
# default; a legitimately slower runner can downgrade with
# SRUMMA_PERF_GATE=warn (read the diff output either way).
GATE_MODE="${SRUMMA_PERF_GATE:-fail}"
if [ -f results/BENCH_dense_gemm.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_dense_gemm -- \
        --quick --out "$out/BENCH_dense_gemm.json" >/dev/null
    if ! ./scripts/bench_diff results/BENCH_dense_gemm.json "$out/BENCH_dense_gemm.json" \
        --strict --only speedup; then
        if [ "$GATE_MODE" = "warn" ]; then
            echo "WARNING: dense gemm perf regressed vs checked-in baseline (SRUMMA_PERF_GATE=warn)"
        else
            echo "FAIL: dense gemm perf regressed vs checked-in baseline" >&2
            echo "      (set SRUMMA_PERF_GATE=warn to downgrade on known-slower runners)" >&2
            exit 1
        fi
    fi
    echo "== perf gate (warn): dense gemm absolute GFLOP/s ladder =="
    # Absolute throughput of every ladder rung (naive/scalar/avx2/
    # avx512/neon), warn-only: it tracks kernel-level regressions
    # across commits without letting runner-hardware variance block
    # merges.
    if ! ./scripts/bench_diff results/BENCH_dense_gemm.json "$out/BENCH_dense_gemm.json" \
        --strict --only gflops; then
        echo "WARNING: dense gemm absolute GFLOP/s moved vs checked-in baseline (warn-only gate)"
    fi
    echo "== perf gate (warn): pack cost per element =="
    # The packers under the ladder (pack_ns_per_elem_*, lower is
    # better), warn-only for the same reason: absolute nanoseconds
    # follow the runner's cache and memory, not only the code.
    if ! ./scripts/bench_diff results/BENCH_dense_gemm.json "$out/BENCH_dense_gemm.json" \
        --strict --only pack_ns_per_elem; then
        echo "WARNING: pack cost per element moved vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_dense_gemm.json); skipping"
fi

echo "== perf gate (hard): executor vs thread-per-rank scaling =="
# Same gate shape for the work-stealing executor, but only on the
# exec-over-threads speedup *ratio* from 64 ranks up: both numerator and
# denominator run on this host, so the ratio is stable where raw wall
# seconds are not. The wider threshold absorbs scheduler jitter on
# loaded runners. The r8-r32 cells are millisecond ops that one scheduler
# blip moves past any threshold: they only warn.
if [ -f results/BENCH_executor_scaling.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_executor_scaling -- \
        --quick --out "$out/BENCH_executor_scaling.json" >/dev/null
    if ! ./scripts/bench_diff results/BENCH_executor_scaling.json "$out/BENCH_executor_scaling.json" \
        --strict --threshold 40 --only speedup_exec_over_threads_r; then
        echo "WARNING: a per-rank-count executor speedup regressed vs checked-in baseline (warn-only gate)"
    fi
    if ! ./scripts/bench_diff results/BENCH_executor_scaling.json "$out/BENCH_executor_scaling.json" \
        --strict --threshold 40 --only speedup_exec_over_threads_min_64plus; then
        if [ "$GATE_MODE" = "warn" ]; then
            echo "WARNING: executor scaling regressed vs checked-in baseline (SRUMMA_PERF_GATE=warn)"
        else
            echo "FAIL: executor scaling regressed vs checked-in baseline" >&2
            echo "      (set SRUMMA_PERF_GATE=warn to downgrade on known-slower runners)" >&2
            exit 1
        fi
    fi
else
    echo "no checked-in baseline (results/BENCH_executor_scaling.json); skipping"
fi

echo "== perf gate (warn): block-sparse speedup vs density =="
# Sparse pruning is a *throughput* feature: gate on the
# sparse-over-dense speedup ratios, which are host-stable. Warn-only
# for now — the sweep is long enough that runner load can smear a
# single density cell; the smoke above is the hard correctness gate.
if [ -f results/BENCH_sparse_gemm.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_sparse_gemm -- \
        --quick --out "$out/BENCH_sparse_gemm.json" >/dev/null
    if ! ./scripts/bench_diff results/BENCH_sparse_gemm.json "$out/BENCH_sparse_gemm.json" \
        --strict --threshold 40 --only speedup_sparse; then
        echo "WARNING: block-sparse speedup regressed vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_sparse_gemm.json); skipping"
fi

echo "CI green."
