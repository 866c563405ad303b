// Table 5 (Section 4.4): cumulative 20-epoch communication time of the COMM
// module vs the ps-lite style COMM-P, under the three payload strategies
// P&Q / Q-only / half-Q, on Netflix, R1_NEW (R1*) and R2.
//
// Expected shape: Q-only speedups track the theoretical 20(m+n)/(m+20n)
// (~19x Netflix, ~2.5x R1, ~6x R2); half-Q exceeds 2x on top of Q-only;
// COMM beats COMM-P ~7x at equal strategy; strategy trends identical on
// both backends.
#include <algorithm>
#include <iostream>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "comm/pipeline.hpp"
#include "comm/session.hpp"
#include "core/hccmf.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

double comm_time(const std::string& dataset, const sim::DatasetShape& shape,
                 bool reduce, bool fp16, comm::BackendKind backend) {
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = dataset;
  config.comm.reduce_payload = reduce;
  config.comm.codec = fp16 ? comm::CodecKind::kFp16 : comm::CodecKind::kFp32;
  config.comm.backend = backend;
  return core::HccMf(config).simulate(shape).comm_virtual_s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json_out(argc, argv, "table5_comm");
  bench::banner("Table 5: communication time of 20 epochs",
                "paper Table 5; COMM vs COMM-P x {P&Q, Q, half-Q}");

  const std::vector<std::pair<std::string, data::DatasetSpec>> datasets = {
      {"Netflix", data::netflix_spec()},
      {"R1_NEW", data::yahoo_r1_star_spec()},
      {"R2", data::yahoo_r2_spec()}};

  for (const auto backend :
       {comm::BackendKind::kShm, comm::BackendKind::kBroker}) {
    const char* name = backend == comm::BackendKind::kShm ? "COMM" : "COMM-P";
    std::cout << "\n--- " << name << " ---\n";
    util::Table table({"optimization", "Netflix (s)", "speedup", "R1_NEW (s)",
                       "speedup", "R2 (s)", "speedup"});
    std::vector<double> base(datasets.size(), 0.0);
    for (const auto& [label, reduce, fp16] :
         std::vector<std::tuple<std::string, bool, bool>>{
             {"P&Q", false, false}, {"Q", true, false}, {"half-Q", true, true}}) {
      std::vector<std::string> row{label};
      for (std::size_t d = 0; d < datasets.size(); ++d) {
        const sim::DatasetShape shape = bench::shape_of(datasets[d].second);
        const double t = comm_time(datasets[d].second.name, shape, reduce,
                                   fp16, backend);
        if (label == "P&Q") base[d] = t;
        row.push_back(util::Table::num(t, 4));
        row.push_back(util::Table::num(base[d] / t, 1) + "x");
      }
      table.add_row(row);
    }
    json_out.add_table("table5", table);
    table.print(std::cout);
  }

  // --- Transport RTT calibration ---------------------------------------
  // The elastic session tier (comm/session.hpp) derives its retransmission
  // and liveness timers from sim::LinkSpec::rtt_s.  Drive a reliable
  // session over each calibrated link preset with a representative Q-frame
  // and compare the RTT the session *observed* on its ack path (the
  // transport.rtt_ms histogram) against the cost model's prediction.
  std::cout << "\n--- transport RTT calibration (1 MiB Q frame) ---\n";
  util::Table rtt_table(
      {"link", "model RTT (ms)", "session RTT (ms)", "drift"});
  const std::size_t q_elems = 256 * 1024;  // 1 MiB of fp32 factors
  comm::CommConfig rtt_cfg;
  rtt_cfg.codec = comm::CodecKind::kFp32;
  obs::Histogram& rtt_hist = obs::registry().histogram("transport.rtt_ms");
  for (const char* link : {"local", "IB-HDR", "100GbE", "10GbE"}) {
    comm::TransportConfig tconfig;
    tconfig.kind = comm::TransportKind::kSimLatency;
    tconfig.link = link;
    comm::SessionComm session(comm::make_transport(tconfig, /*worker=*/0),
                              tconfig, /*worker=*/0);
    comm::StreamPipeline pipe(rtt_cfg, /*row_elems=*/1,
                              comm::StreamPipeline::Direction::kPush);
    const std::vector<float> src(q_elems, 0.5f);
    std::vector<float> dst(q_elems, 0.0f);
    const std::uint64_t count0 = rtt_hist.count();
    const double sum0 = rtt_hist.sum();
    for (int i = 0; i < 4; ++i) pipe.transfer(session, src, dst);
    const std::uint64_t samples = rtt_hist.count() - count0;
    const double observed_ms =
        samples ? (rtt_hist.sum() - sum0) / static_cast<double>(samples) : 0.0;
    const double model_ms =
        1e3 * sim::link_by_name(link).rtt_s(q_elems * sizeof(float) +
                                            comm::FrameHeader::kBytes);
    rtt_table.add_row({link, util::Table::num(model_ms, 4),
                       util::Table::num(observed_ms, 4),
                       util::Table::num(observed_ms / model_ms, 2) + "x"});
  }
  json_out.add_table("transport_rtt", rtt_table);
  rtt_table.print(std::cout);
  std::cout << "session RTT = model RTT + tick quantization of the virtual "
               "clock; drift near 1.0x means the heartbeat/timeout derivation "
               "is calibrated\n";

  // --- Sub-FP16 codecs: wire bytes, throughput, link crossovers ---------
  // The error-feedback quantizers (comm/codec.hpp) trade encode/decode
  // compute for 4-16x smaller steady-state transfers.  Three views: the
  // cost model's per-epoch wire bytes on the Netflix Q payload, measured
  // single-core encode+decode throughput, and the end-to-end pull+push
  // time per link preset — the crossover table that says which link speeds
  // make each codec pay off against fp16.
  const sim::DatasetShape netflix = bench::shape_of(data::netflix_spec());
  const std::uint64_t q_epoch_elems = netflix.n * netflix.k;
  const std::vector<comm::CodecKind> kinds = {
      comm::CodecKind::kFp32, comm::CodecKind::kFp16, comm::CodecKind::kInt8,
      comm::CodecKind::kTwoBit};

  std::cout << "\n--- codec wire bytes (Netflix Q epoch, steady state) ---\n";
  util::Table wire_table({"codec", "pull (MB)", "push (MB)",
                          "push compression", "pull codec"});
  const double fp32_push = comm::wire_bytes(q_epoch_elems,
                                            comm::CodecKind::kFp32,
                                            netflix.k);
  for (const comm::CodecKind kind : kinds) {
    comm::CommConfig cfg;
    cfg.codec = kind;
    const double pull = comm::wire_bytes(q_epoch_elems,
                                         comm::pull_codec_kind(cfg),
                                         netflix.k);
    const double push = comm::wire_bytes(q_epoch_elems, kind, netflix.k);
    wire_table.add_row(
        {comm::codec_kind_name(kind), util::Table::num(pull / 1e6, 2),
         util::Table::num(push / 1e6, 2),
         util::Table::num(fp32_push / push, 2) + "x",
         std::string(comm::codec_kind_name(comm::pull_codec_kind(cfg)))});
    // Numeric twin of the "push compression" column: pure byte accounting,
    // identical on every host, so CI's bench_compare gate can pin it.
    json_out.add_row(
        "codec_ratios",
        {{"codec", bench::JsonReport::quote(
                       std::string(comm::codec_kind_name(kind)))},
         {"push_compression_ratio",
          bench::JsonReport::number(fp32_push / push)}});
  }
  json_out.add_table("codec_wire", wire_table);
  wire_table.print(std::cout);

  std::cout << "\n--- codec throughput (1 MiB Q frame, steady state) ---\n";
  util::Table tput_table({"codec", "encode (GB/s)", "decode (GB/s)",
                          "wire (KiB)"});
  const std::size_t frame_elems = 256 * 1024;
  const double frame_bytes = static_cast<double>(frame_elems) * 4.0;
  // Measured steady-state per-frame codec seconds, reused by the link table.
  std::vector<double> codec_frame_s(kinds.size(), 0.0);
  std::vector<double> codec_wire_bytes(kinds.size(), 0.0);
  std::vector<float> frame(frame_elems);
  for (std::size_t i = 0; i < frame_elems; ++i) {
    frame[i] = 0.1f + 0.001f * static_cast<float>(i % 997);
  }
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    comm::CommConfig cfg;
    cfg.codec = kinds[c];
    const auto codec = comm::make_codec(cfg, netflix.k);
    std::vector<float> out(frame_elems);
    {  // keyframe: move the stateful codecs to steady state
      std::vector<std::byte> key(codec->encoded_bytes(frame_elems));
      codec->encode(frame, key);
      codec->decode(key, out);
    }
    std::vector<std::byte> wire(codec->encoded_bytes(frame_elems));
    constexpr int kRounds = 40;
    double encode_s = 0.0;
    double decode_s = 0.0;
    for (int r = 0; r < kRounds; ++r) {
      util::Stopwatch enc;
      codec->encode(frame, wire);
      encode_s += enc.seconds();
      util::Stopwatch dec;
      codec->decode(wire, out);
      decode_s += dec.seconds();
    }
    encode_s /= kRounds;
    decode_s /= kRounds;
    codec_frame_s[c] = encode_s + decode_s;
    codec_wire_bytes[c] = static_cast<double>(wire.size());
    tput_table.add_row({std::string(comm::codec_kind_name(kinds[c])),
                        util::Table::num(frame_bytes / encode_s / 1e9, 2),
                        util::Table::num(frame_bytes / decode_s / 1e9, 2),
                        util::Table::num(codec_wire_bytes[c] / 1024.0, 1)});
  }
  json_out.add_table("codec_throughput", tput_table);
  tput_table.print(std::cout);

  std::cout << "\n--- end-to-end frame time per link (codec compute + wire) "
               "---\n";
  util::Table link_table({"link", "codec", "total (ms)", "speedup_vs_fp16",
                          "beats fp16"});
  const std::size_t fp16_index = 1;  // kinds[1] == kFp16
  for (const char* link : {"local", "IB-HDR", "100GbE", "10GbE", "1GbE"}) {
    const sim::LinkSpec spec = sim::link_by_name(link);
    std::vector<double> totals(kinds.size(), 0.0);
    for (std::size_t c = 0; c < kinds.size(); ++c) {
      const double transfer_s =
          spec.latency_s +
          codec_wire_bytes[c] / (spec.bandwidth_gbs * 1e9 * spec.efficiency);
      totals[c] = codec_frame_s[c] + transfer_s;
    }
    for (std::size_t c = 0; c < kinds.size(); ++c) {
      const double speedup = totals[fp16_index] / totals[c];
      link_table.add_row(
          {link, std::string(comm::codec_kind_name(kinds[c])),
           util::Table::num(totals[c] * 1e3, 4),
           util::Table::num(speedup, 2) + "x",
           kinds[c] != comm::CodecKind::kFp16 && speedup > 1.0 ? "yes"
                                                               : "-"});
      // CI gates the crossover only on the slowest preset, where the wire
      // time dwarfs the measured codec compute and the speedup is stable
      // run-to-run (fast links sit near 1.0x and would just be noise).
      if (std::string(link) == "1GbE") {
        json_out.add_row(
            "codec_crossover",
            {{"codec", bench::JsonReport::quote(
                           std::string(comm::codec_kind_name(kinds[c])))},
             {"link", bench::JsonReport::quote(link)},
             {"speedup_vs_fp16", bench::JsonReport::number(speedup)}});
      }
    }
  }
  json_out.add_table("codec_links", link_table);
  link_table.print(std::cout);
  std::cout << "fast links are compute-bound (fp16 wins); the quantizers "
               "cross over once serialization dominates\n";

  // --- Chunked streaming pipeline (comm/pipeline.hpp) -------------------
  // One 4 MiB int8 push over a 10GbE session, depth 1 (serial encode ->
  // wire -> commit) vs depth 4 (bounded ring of in-flight chunks).  The
  // codec stages run on the wall clock; the wire runs on the session's
  // virtual tick clock — disjoint domains, so a serial round costs their
  // sum while a pipelined round costs their max.  The cost model's Eq. 1
  // overlap term predicts each steady-state chunk at
  // max(encode, wire, commit); `overlap_efficiency_ratio` is modeled /
  // measured per-chunk time (1.0 = perfect overlap; the CI gate keeps it
  // within 1.25x, i.e. >= 0.8).
  std::cout << "\n--- chunked streaming pipeline (int8 push, 10GbE session) "
               "---\n";
  {
    const std::size_t pipe_elems = 1024 * 1024;  // 4 MiB of fp32 factors
    const double raw_bytes = static_cast<double>(pipe_elems) * 4.0;
    std::vector<float> pipe_src(pipe_elems);
    for (std::size_t i = 0; i < pipe_elems; ++i) {
      pipe_src[i] = 0.1f + 0.001f * static_cast<float>(i % 997);
    }
    std::vector<float> pipe_dst(pipe_elems, 0.0f);
    constexpr int kPipeRounds = 8;

    // Measured codec stage times (steady state, same array): the encode
    // and commit legs of the overlap model.
    comm::CommConfig pipe_cfg;
    pipe_cfg.codec = comm::CodecKind::kInt8;
    double encode_s = 0.0;
    double commit_s = 0.0;
    {
      const auto stage_codec = comm::make_codec(pipe_cfg, netflix.k);
      std::vector<std::byte> wire(stage_codec->encoded_bytes(pipe_elems));
      stage_codec->encode(pipe_src, wire);  // keyframe -> steady state
      stage_codec->decode(wire, pipe_dst);
      for (int r = 0; r < kPipeRounds; ++r) {
        util::Stopwatch enc;
        stage_codec->encode(pipe_src, wire);
        encode_s += enc.seconds();
        util::Stopwatch dec;
        stage_codec->decode(wire, pipe_dst);
        commit_s += dec.seconds();
      }
      encode_s /= kPipeRounds;
      commit_s /= kPipeRounds;
    }

    // One steady-state measurement per depth: wall seconds (codec compute)
    // and virtual wire seconds (session tick delta) per round.
    auto run_depth = [&](std::uint32_t depth, double& wall_s,
                         double& wire_s, std::size_t& chunks) {
      comm::CommConfig cfg = pipe_cfg;
      cfg.pipeline_depth = depth;
      comm::TransportConfig tconfig;
      tconfig.kind = comm::TransportKind::kSimLatency;
      tconfig.link = "10GbE";
      comm::SessionComm session(comm::make_transport(tconfig, /*worker=*/0),
                                tconfig, /*worker=*/0);
      comm::StreamPipeline pipe(cfg, netflix.k,
                                comm::StreamPipeline::Direction::kPush);
      chunks = pipe.chunk_count(pipe_elems);
      pipe.transfer(session, pipe_src, pipe_dst);  // keyframe round
      const std::uint64_t tick0 = session.link_transport().now();
      util::Stopwatch wall;
      for (int r = 0; r < kPipeRounds; ++r) {
        pipe.transfer(session, pipe_src, pipe_dst);
      }
      wall_s = wall.seconds() / kPipeRounds;
      wire_s = static_cast<double>(session.link_transport().now() - tick0) *
               session.link_transport().tick_seconds() / kPipeRounds;
    };

    double serial_wall = 0.0, serial_wire = 0.0;
    double piped_wall = 0.0, piped_wire = 0.0;
    std::size_t serial_chunks = 1, piped_chunks = 1;
    run_depth(1, serial_wall, serial_wire, serial_chunks);
    run_depth(4, piped_wall, piped_wire, piped_chunks);
    const double n_chunks = static_cast<double>(piped_chunks);

    // Chunk-framed serial baseline: the same frames, codecs and memory
    // walk as the depth-4 run (one depth-1 pipeline per chunk over the
    // full array), strictly one chunk at a time.  Its wall residual over
    // the standalone codec stages is the session's per-frame protocol
    // CPU — framing copies, FNV checksums, pump and ack handling — which
    // stays on the delivering thread at any depth and therefore belongs to
    // the commit leg of the overlap model, not to the hideable encode leg.
    const std::size_t chunk_elems = pipe_elems / piped_chunks;
    double framed_wall = 0.0;
    double framed_wire = 0.0;
    {
      comm::TransportConfig tconfig;
      tconfig.kind = comm::TransportKind::kSimLatency;
      tconfig.link = "10GbE";
      comm::SessionComm session(comm::make_transport(tconfig, /*worker=*/0),
                                tconfig, /*worker=*/0);
      comm::CommConfig chunk_cfg = pipe_cfg;
      chunk_cfg.codec_threads = 0;
      std::vector<comm::StreamPipeline> chunk_pipes;
      for (std::size_t c = 0; c < piped_chunks; ++c) {
        chunk_pipes.emplace_back(chunk_cfg, netflix.k,
                                 comm::StreamPipeline::Direction::kPush);
      }
      auto framed_round = [&] {
        for (std::size_t c = 0; c < piped_chunks; ++c) {
          chunk_pipes[c].transfer(
              session,
              std::span<const float>(pipe_src)
                  .subspan(c * chunk_elems, chunk_elems),
              std::span<float>(pipe_dst).subspan(c * chunk_elems, chunk_elems));
        }
      };
      framed_round();  // keyframe round
      const std::uint64_t tick0 = session.link_transport().now();
      util::Stopwatch wall;
      for (int r = 0; r < kPipeRounds; ++r) framed_round();
      framed_wall = wall.seconds() / kPipeRounds;
      framed_wire =
          static_cast<double>(session.link_transport().now() - tick0) *
          session.link_transport().tick_seconds() / kPipeRounds;
    }
    const double protocol_s = std::max(0.0, framed_wall - encode_s - commit_s);

    // Serial rounds: stages are strictly sequential across both clocks.
    // Pipelined round: the in-flight window overlaps the wire with the
    // CPU stages, so the round costs the slower clock.  The CPU legs
    // themselves only overlap each other when a second core exists to run
    // the encoder thread (StreamPipeline::Threading::kAuto makes the same
    // call); on one core encode serializes with commit.
    const unsigned cores = std::thread::hardware_concurrency();
    const bool encoder_threaded = cores != 1;
    const double serial_round_s = serial_wall + serial_wire;
    const double framed_round_s = framed_wall + framed_wire;
    const double piped_round_s = std::max(piped_wall, piped_wire);
    const double measured_chunk_s = piped_round_s / n_chunks;
    const double cpu_leg_s =
        encoder_threaded ? std::max(encode_s, commit_s + protocol_s)
                         : encode_s + commit_s + protocol_s;
    const double modeled_chunk_s =
        std::max(cpu_leg_s / n_chunks, piped_wire / n_chunks);
    const double overlap_efficiency = modeled_chunk_s / measured_chunk_s;
    const double pipeline_speedup = framed_round_s / piped_round_s;

    util::Table pipe_table({"depth", "chunks", "round (ms)",
                            "per-chunk (us)", "note"});
    pipe_table.add_row({"1", std::to_string(serial_chunks),
                        util::Table::num(serial_round_s * 1e3, 4),
                        util::Table::num(serial_round_s * 1e6, 1),
                        "one monolithic frame"});
    pipe_table.add_row({"1", std::to_string(piped_chunks),
                        util::Table::num(framed_round_s * 1e3, 4),
                        util::Table::num(framed_round_s / n_chunks * 1e6, 1),
                        "chunk frames, one at a time"});
    pipe_table.add_row({"4", std::to_string(piped_chunks),
                        util::Table::num(piped_round_s * 1e3, 4),
                        util::Table::num(measured_chunk_s * 1e6, 1),
                        "max(encode, wire, commit) target"});
    json_out.add_table("pipeline", pipe_table);
    pipe_table.print(std::cout);
    std::cout << "stages per round: encode "
              << util::Table::num(encode_s * 1e3, 4) << " ms, wire "
              << util::Table::num(piped_wire * 1e3, 4) << " ms, commit "
              << util::Table::num(commit_s * 1e3, 4)
              << " ms (+ " << util::Table::num(protocol_s * 1e3, 4)
              << " ms frame protocol); "
              << (encoder_threaded ? "threaded encoder" : "inline ring")
              << " on " << cores << " core(s); modeled chunk "
              << util::Table::num(modeled_chunk_s * 1e6, 1)
              << " us vs measured "
              << util::Table::num(measured_chunk_s * 1e6, 1)
              << " us (overlap efficiency "
              << util::Table::num(overlap_efficiency, 2) << ", speedup "
              << util::Table::num(pipeline_speedup, 2) << "x)\n";
    json_out.add_row(
        "pipeline_overlap",
        {{"link", bench::JsonReport::quote("10GbE")},
         {"codec", bench::JsonReport::quote("int8")},
         {"depth", bench::JsonReport::number(4)},
         {"chunks", bench::JsonReport::number(n_chunks)},
         {"raw_mb", bench::JsonReport::number(raw_bytes / 1e6)},
         {"overlap_efficiency_ratio",
          bench::JsonReport::number(overlap_efficiency)},
         {"pipeline_speedup", bench::JsonReport::number(pipeline_speedup)}});
  }

  std::cout << "\npaper's COMM speedups: Netflix 18.3x/58x, R1_NEW 2.9x/9.6x, "
               "R2 7.5x/22.6x; COMM-P ~6.6x slower throughout\n";
  return 0;
}
