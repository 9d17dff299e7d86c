/**
 * @file
 * gpxbench — the benchmark's own harness code (run.py orchestrates it).
 *
 *   gpxbench info
 *       Build context as one JSON line: compiler, build type, SIMD
 *       backend and the reason it was chosen (GPX_SIMD is honored).
 *
 *   gpxbench trace --ref F --index F --r1 F --r2 F --out SAM
 *                  --report JSON --spans TSV
 *       Single-threaded FASTQ -> SAM run that calls each module's
 *       public functions in production order (readFasta,
 *       SeedMapImage::open, Mm2Lite construction, PairedFastqChunker +
 *       parseFastqChunk, the five run*Stage calls over 64-pair
 *       batches, SamWriter::writePairBatch). Every call is recorded
 *       as a span (name, start, end, parent, batch id), kept in
 *       memory and written out at the end. After the run a
 *       calibration loop times empty spans, so the report gives the
 *       tracing cost of this run (span count x cost per span).
 *       Mapping is per-pair pure, so the SAM must be byte-identical
 *       to a gpx_map run over the same inputs.
 *
 *   gpxbench loadgen --socket P --r1 F --r2 F
 *                    (--schedule F | --closed-seconds S)
 *                    --sam OUT --log OUT --stats OUT
 *                    [--conns N] [--pairs-per-req N]
 *       Load generator for gpx_serve. Request i carries pair block
 *       (i mod blocks) of the FASTQ files. Open loop (--schedule):
 *       request i is due at the i-th offset of the schedule file
 *       (microseconds); each of the N connections takes the next due
 *       request, sleeps until it is due and waits for the reply, so a
 *       stalled server makes later requests go out late; the log
 *       keeps due, send and reply times so latency is measured from
 *       the due time. Closed loop (--closed-seconds): each connection
 *       sends its next request as soon as the last reply is in, until
 *       S seconds have passed, so the server sets the rate. The SAM
 *       output holds the first reply of each block; a later reply for
 *       the same block that differs from it exits 4.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../tools/cli.hh"
#include "baseline/minimizer_index.hh"
#include "baseline/mm2lite.hh"
#include "genomics/fasta.hh"
#include "genomics/fastq_ingest.hh"
#include "genomics/sam.hh"
#include "genpair/engine.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/stages.hh"
#include "serve/client.hh"
#include "util/byte_stream.hh"
#include "util/gzip_stream.hh"
#include "util/logging.hh"
#include "util/simd.hh"

#ifndef GPXBENCH_BUILD_TYPE
#define GPXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gpx;
using Clock = std::chrono::steady_clock;

/** Pairs per stage-graph batch: MapperEngine's block size. */
constexpr u64 kBlockPairs = genpair::MapperEngine::kDefaultBlockItems;
/** Pairs per ingest chunk: gpx_map's default --chunk. */
constexpr u64 kChunkPairs = 65536;

const char kUsage[] =
    "usage: gpxbench info\n"
    "       gpxbench trace --ref F --index F --r1 F --r2 F --out SAM "
    "--report JSON --spans TSV\n"
    "       gpxbench loadgen --socket P --r1 F --r2 F "
    "(--schedule F | --closed-seconds S) --sam OUT --log OUT --stats OUT "
    "[--conns N] [--pairs-per-req N]\n";

/** Empty spans timed after the traced run to price one span. */
constexpr u64 kCalibrationSpans = 50000;

/** In-memory span recorder. */
class Tracer
{
  public:
    struct Span
    {
        u32 parent;
        const char *name;
        u64 batch;
        i64 startNs;
        i64 endNs;
        i64 childNs;
    };

    Tracer() : t0_(Clock::now()) { spans_.reserve(1 << 16); }

    /** Run @p fn as a span named @p name, child of the open span. */
    template <class Fn>
    void
    span(const char *name, u64 batch, Fn &&fn)
    {
        const u32 id = static_cast<u32>(spans_.size());
        const u32 parent = open_.empty() ? id : open_.back();
        spans_.push_back({ parent, name, batch, nowNs(), 0, 0 });
        open_.push_back(id);
        fn();
        open_.pop_back();
        Span &s = spans_[id];
        s.endNs = nowNs();
        if (parent != id)
            spans_[parent].childNs += s.endNs - s.startNs;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    i64
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<u32> open_;
};

int
runInfo()
{
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"simd_backend\": \"%s\", \"simd_reason\": \"%s\"}\n",
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                GPXBENCH_BUILD_TYPE,
                util::simdBackendName(util::activeSimdBackend()),
                util::simdBackendReason().c_str());
    return 0;
}

int
runTrace(const tools::Cli &cli)
{
    const std::string spansPath = cli.required("--spans");
    Tracer tr;
    const auto wallStart = Clock::now();

    genomics::Reference ref;
    std::optional<genpair::SeedMapImage> image;
    std::unique_ptr<baseline::Mm2Lite> mm2;
    genpair::GenPairParams params;
    genpair::PipelineStats stats;
    u64 pairs = 0;
    const std::string outPath = cli.required("--out");

    tr.span("run", 0, [&]() {
        tr.span("genomics.ref_load", 0, [&]() {
            std::ifstream f(cli.required("--ref"));
            if (!f)
                gpx_fatal("cannot open reference");
            ref = genomics::readFasta(f);
        });
        tr.span("genpair.index_open", 0, [&]() {
            std::string err;
            image = genpair::SeedMapImage::open(cli.required("--index"),
                                                {}, &err);
            if (!image)
                gpx_fatal("index image rejected: ", err);
        });
        tr.span("baseline.minimizer_index", 0, [&]() {
            baseline::Mm2LiteParams mp;
            auto index = std::make_shared<const baseline::MinimizerIndex>(
                ref, mp.minimizers);
            mm2 = std::make_unique<baseline::Mm2Lite>(ref, mp, index);
        });

        const genpair::SeedMapView map = image->view();
        genpair::PartitionedSeeder seeder(map);
        genpair::LightAligner light(ref, params.light);
        genpair::StageContext ctx{ ref,   map,     params,    seeder,
                                   light, nullptr, mm2.get(), stats };

        std::ofstream out(outPath);
        if (!out)
            gpx_fatal("cannot open output: ", outPath);
        genomics::SamWriter sam(out, ref);
        sam.checkWrites(outPath, /*fatal_on_error=*/true);
        tr.span("genomics.emit", 0, [&]() { sam.writeHeader(); });

        std::ifstream f1(cli.required("--r1"));
        std::ifstream f2(cli.required("--r2"));
        if (!f1 || !f2)
            gpx_fatal("cannot open FASTQ input");
        util::IstreamSource raw1(f1);
        util::IstreamSource raw2(f2);
        util::AutoInflateSource in1(raw1);
        util::AutoInflateSource in2(raw2);
        genomics::PairedFastqChunker chunker(in1, in2, kChunkPairs);
        std::atomic<bool> warned{ false };

        genpair::PairBatch batch;
        std::vector<genomics::PairMapping> mappings;
        u64 blockNo = 0;
        for (u64 chunkNo = 0;; ++chunkNo) {
            genomics::ParsedChunk parsed;
            bool more = false;
            tr.span("genomics.parse", chunkNo, [&]() {
                genomics::FastqChunk chunk;
                more = chunker.next(chunk);
                if (more)
                    parsed = genomics::parseFastqChunk(std::move(chunk),
                                                       &warned);
            });
            if (!more)
                break;
            if (parsed.error.set())
                gpx_fatal(parsed.error.message);
            const u64 n = parsed.pairs.size();
            mappings.assign(n, genomics::PairMapping{});
            tr.span("genpair.map_chunk", chunkNo, [&]() {
                for (u64 b = 0; b < n; b += kBlockPairs) {
                    const u64 id = blockNo++;
                    tr.span("genpair.block", id, [&]() {
                        batch.bind(parsed.pairs.data() + b,
                                   std::min(kBlockPairs, n - b),
                                   mappings.data() + b, nullptr);
                        tr.span("genpair.seed", id, [&]() {
                            genpair::runSeedStage(ctx, batch);
                        });
                        tr.span("genpair.query", id, [&]() {
                            genpair::runQueryStage(ctx, batch);
                        });
                        tr.span("genpair.pa_filter", id, [&]() {
                            genpair::runPaFilterStage(ctx, batch);
                        });
                        tr.span("genpair.light_align", id, [&]() {
                            genpair::runLightAlignStage(ctx, batch);
                        });
                        tr.span("genpair.fallback", id, [&]() {
                            genpair::runFallbackStage(ctx, batch);
                        });
                    });
                }
            });
            tr.span("genomics.emit", chunkNo, [&]() {
                sam.writePairBatch(parsed.pairs.data(), mappings.data(), n);
            });
            pairs += n;
        }
        tr.span("genomics.emit", 0, [&]() {
            out.flush();
            if (!out)
                gpx_fatal("write to ", outPath, " failed");
        });
    });
    const double wallS =
        std::chrono::duration<double>(Clock::now() - wallStart).count();

    // Cost of one recorded span, from a fresh tracer of the same
    // shape: one parent span around many empty children.
    Tracer cal;
    const auto calStart = Clock::now();
    cal.span("calibration", 0, [&]() {
        for (u64 i = 0; i < kCalibrationSpans; ++i)
            cal.span("empty", i, []() {});
    });
    const double spanCostS =
        std::chrono::duration<double>(Clock::now() - calStart).count() /
        static_cast<double>(kCalibrationSpans + 1);

    {
        std::ofstream sf(spansPath);
        sf << "id\tparent\tname\tbatch\tstart_ns\tend_ns\n";
        const auto &spans = tr.spans();
        for (std::size_t i = 0; i < spans.size(); ++i)
            sf << i << '\t' << spans[i].parent << '\t' << spans[i].name
               << '\t' << spans[i].batch << '\t' << spans[i].startNs
               << '\t' << spans[i].endNs << '\n';
        sf.flush();
        if (!sf)
            gpx_fatal("cannot write spans file");
    }

    // Per-name aggregates: call count, total and self (minus children).
    struct Agg
    {
        u64 count = 0;
        i64 totalNs = 0;
        i64 selfNs = 0;
    };
    std::vector<std::pair<std::string, Agg>> aggs;
    for (const auto &s : tr.spans()) {
        auto it = std::find_if(aggs.begin(), aggs.end(),
                               [&](const auto &a) { return a.first == s.name; });
        if (it == aggs.end()) {
            aggs.emplace_back(s.name, Agg{});
            it = aggs.end() - 1;
        }
        it->second.count += 1;
        it->second.totalNs += s.endNs - s.startNs;
        it->second.selfNs += s.endNs - s.startNs - s.childNs;
    }

    std::ofstream rf(cli.required("--report"));
    rf << std::setprecision(12);
    rf << "{\n  \"wall_s\": " << wallS << ",\n  \"pairs\": " << pairs
       << ",\n  \"span_count\": " << tr.spans().size()
       << ",\n  \"span_cost_s\": " << spanCostS << ",\n  \"spans\": {";
    for (std::size_t i = 0; i < aggs.size(); ++i)
        rf << (i ? ", " : "") << "\"" << aggs[i].first
           << "\": {\"count\": " << aggs[i].second.count
           << ", \"total_s\": " << aggs[i].second.totalNs * 1e-9
           << ", \"self_s\": " << aggs[i].second.selfNs * 1e-9 << "}";
    const auto &t = mm2->timers();
    rf << "},\n  \"mm2\": {\"seeding_s\": "
       << t.seconds(baseline::stages::kSeeding)
       << ", \"chaining_s\": " << t.seconds(baseline::stages::kChaining)
       << ", \"alignment_s\": " << t.seconds(baseline::stages::kAlignment)
       << ", \"pairing_s\": " << t.seconds(baseline::stages::kPairing)
       << ", \"align_cells\": " << mm2->dpWork().alignCells
       << ", \"chain_cells\": " << mm2->dpWork().chainCells
       << "},\n  \"pipeline\": ";
    stats.writeJson(rf);
    rf << "}\n";
    rf.flush();
    if (!rf)
        gpx_fatal("cannot write report file");
    return 0;
}

/** Split FASTQ text into blocks of @p per_block 4-line records. */
std::vector<std::string>
fastqBlocks(const std::string &path, u64 per_block)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        gpx_fatal("cannot open FASTQ: ", path);
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    std::vector<std::string> blocks;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = pos;
        for (u64 line = 0; line < 4 * per_block && end < text.size();
             ++line) {
            const std::size_t nl = text.find('\n', end);
            end = nl == std::string::npos ? text.size() : nl + 1;
        }
        blocks.push_back(text.substr(pos, end - pos));
        pos = end;
    }
    return blocks;
}

int
runLoadgen(const tools::Cli &cli)
{
    const u64 perReq = static_cast<u64>(cli.num("--pairs-per-req", 128));
    const u32 conns = static_cast<u32>(cli.num("--conns", 4));
    const auto blocks1 = fastqBlocks(cli.required("--r1"), perReq);
    const auto blocks2 = fastqBlocks(cli.required("--r2"), perReq);
    if (blocks1.size() != blocks2.size() || blocks1.empty())
        gpx_fatal("R1/R2 FASTQ disagree or are empty");
    const std::size_t nblocks = blocks1.size();

    const bool closed = cli.has("--closed-seconds");
    const i64 closedNs =
        closed ? static_cast<i64>(cli.real("--closed-seconds", 0) * 1e9) : 0;
    std::vector<i64> dueUs;
    if (!closed) {
        std::ifstream sf(cli.required("--schedule"));
        for (i64 v; sf >> v;)
            dueUs.push_back(v);
    }
    if ((!closed && dueUs.empty()) || conns == 0)
        gpx_fatal("empty schedule or no connections");

    std::vector<std::optional<serve::ServeClient>> clients;
    for (u32 c = 0; c < conns; ++c) {
        std::string err;
        clients.push_back(
            serve::ServeClient::connectUnix(cli.required("--socket"), &err));
        if (!clients.back())
            gpx_fatal("connect failed: ", err);
    }
    std::string header;
    if (!clients[0]->fetchHeader("", &header).ok)
        gpx_fatal("header request failed");

    struct Record
    {
        u64 index = 0;
        i64 dueNs = 0;
        i64 sendNs = 0;
        i64 replyNs = 0;
        bool ok = false;
    };
    // The first reply of each block, which every later one must equal.
    std::vector<std::optional<std::string>> firstSam(nblocks);
    std::mutex samMutex;
    std::atomic<bool> mismatch{ false };
    std::vector<std::vector<Record>> perConn(conns);
    std::atomic<std::size_t> next{ 0 };
    // Start a little ahead so every connection is parked before t0.
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    auto sinceT0 = [&t0]() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
            .count();
    };
    std::vector<std::thread> workers;
    for (u32 c = 0; c < conns; ++c) {
        workers.emplace_back([&, c]() {
            std::this_thread::sleep_until(t0);
            for (;;) {
                if (closed && sinceT0() >= closedNs)
                    return;
                const std::size_t i = next.fetch_add(1);
                if (!closed && i >= dueUs.size())
                    return;
                Record r;
                r.index = i;
                if (!closed)
                    std::this_thread::sleep_until(
                        t0 + std::chrono::microseconds(dueUs[i]));
                r.sendNs = sinceT0();
                r.dueNs = closed ? r.sendNs : dueUs[i] * 1000;
                const std::size_t block = i % nblocks;
                serve::MapReplyBody reply;
                r.ok = clients[c]
                           ->mapBatch("", blocks1[block], blocks2[block],
                                      false, &reply)
                           .ok;
                r.replyNs = sinceT0();
                if (r.ok) {
                    std::lock_guard<std::mutex> lock(samMutex);
                    auto &first = firstSam[block];
                    if (!first)
                        first = std::move(reply.sam);
                    else if (*first != reply.sam)
                        mismatch = true;
                }
                perConn[c].push_back(r);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    std::string statsJson;
    if (!clients[0]->fetchStats(&statsJson).ok)
        gpx_fatal("stats request failed");

    std::vector<Record> records;
    for (auto &conn : perConn)
        records.insert(records.end(), conn.begin(), conn.end());
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  return a.index < b.index;
              });

    std::ofstream sam(cli.required("--sam"), std::ios::binary);
    sam << header;
    for (const auto &first : firstSam)
        if (first)
            sam << *first;
    std::ofstream log(cli.required("--log"));
    log << "request\tblock\tpairs\tdue_ns\tsend_ns\treply_ns\tok\n";
    u64 failed = 0;
    for (const Record &r : records) {
        const std::size_t block = r.index % nblocks;
        const u64 pairs = std::count(blocks1[block].begin(),
                                     blocks1[block].end(), '\n') / 4;
        log << r.index << '\t' << block << '\t' << pairs << '\t' << r.dueNs
            << '\t' << r.sendNs << '\t' << r.replyNs << '\t'
            << (r.ok ? 1 : 0) << '\n';
        failed += !r.ok;
    }
    std::ofstream(cli.required("--stats")) << statsJson;
    sam.flush();
    log.flush();
    if (!sam || !log)
        gpx_fatal("cannot write loadgen output");
    if (mismatch) {
        std::fprintf(stderr, "loadgen: replies for one block differ\n");
        return 4;
    }
    return failed == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
    }
    const std::string cmd = argv[1];
    tools::Cli cli(argc - 1, argv + 1,
                   { "--ref", "--index", "--r1", "--r2", "--out",
                     "--report", "--spans", "--socket", "--schedule",
                     "--closed-seconds", "--sam", "--log", "--stats",
                     "--conns", "--pairs-per-req" },
                   {}, kUsage);
    if (cmd == "info")
        return runInfo();
    if (cmd == "trace")
        return runTrace(cli);
    if (cmd == "loadgen")
        return runLoadgen(cli);
    std::fprintf(stderr, "%s", kUsage);
    return 2;
}
