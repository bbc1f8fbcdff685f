// levnet_perfbench — the benchmark's library-side helper.
//
// run.py drives the shipped levnet_serve over stdio for every end-to-end
// number; this program recomputes and explains what the server did, using
// only the library's public functions:
//
//   levnet_perfbench verify REQUESTS.jsonl
//     Runs every request line independently of the serve layer (own spec
//     parse, Machine::build + run_seeded, or a per-request build for a
//     faulted spec), then runs the same program on pram::ReferencePram.
//     Prints one line per request:
//       <memory == reference 0|1> TAB <program validate() 0|1> TAB <report>
//     where <report> is the write_report_fields body the server must have
//     sent byte for byte.
//
//   levnet_perfbench trace REQUESTS.jsonl --cache N
//     Replays the request lines through the serve path (decode_request,
//     Farm::resolve, make_program, run, write_ok_response) twice, request
//     by request: plain, and traced (a span around each layer call and an
//     obs::Recorder attached); the trace overhead compares the two. Prints
//     each plain response line prefixed "R\t" (run.py compares them with
//     the server's lines), then one JSON object of per-layer metrics. It finishes with layer probes on every
//     distinct fault-free spec: Machine::build, routing walks, a
//     routing::run_workload permutation, and PolynomialHash batches.
//
// Exit status: 0 on success, 1 on a malformed request file or a request
// the library rejects, 2 on bad usage.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/stopwatch.hpp"
#include "hashing/poly_hash.hpp"
#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "machine/spec.hpp"
#include "obs/probes.hpp"
#include "obs/recorder.hpp"
#include "pram/memory.hpp"
#include "pram/reference.hpp"
#include "routing/driver.hpp"
#include "serve/farm.hpp"
#include "serve/request.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"

namespace {

using levnet::analysis::Stopwatch;
namespace machine = levnet::machine;
namespace serve = levnet::serve;

constexpr std::uint32_t kDefaultSteps = 4;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "levnet_perfbench: " << message << "\n";
  std::exit(1);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------------------ verify

struct PlainRequest {
  machine::MachineSpec spec;
  std::string program = "permutation";
  std::uint64_t seed = 0;
  std::uint32_t steps = kDefaultSteps;
};

/// Parses a request line without the serve decoder, so a decoder fault
/// cannot hide in both the served and the recomputed report.
PlainRequest parse_plain(const std::string& line) {
  std::map<std::string, std::string> values;
  std::string error;
  if (!machine::parse_flat_json(line, values, error, "request")) fail(error);
  PlainRequest out;
  if (!machine::parse_spec(values["spec"], out.spec, error)) fail(error);
  if (values.count("program") != 0) out.program = values["program"];
  out.seed = out.spec.seed;
  if (values.count("seed") != 0 &&
      !machine::parse_count_u64(values["seed"], out.seed)) {
    fail("bad seed in '" + line + "'");
  }
  unsigned long steps = out.steps;
  if (!machine::read_count_field(values, "steps", "request", steps, error)) {
    fail(error);
  }
  out.steps = static_cast<std::uint32_t>(steps);
  return out;
}

int verify(const std::string& path) {
  std::map<std::string, std::unique_ptr<machine::Machine>> machines;
  for (const std::string& line : read_lines(path)) {
    PlainRequest request = parse_plain(line);
    std::string error;
    if (!machine::Machine::validate(request.spec, error)) fail(error);

    std::unique_ptr<machine::Machine> faulted;
    const machine::Machine* m = nullptr;
    if (request.spec.faults.any()) {
      // A faulted run derives its plan and stream from the request seed.
      request.spec.seed = request.seed;
      faulted = std::make_unique<machine::Machine>(
          machine::Machine::build(request.spec));
      m = faulted.get();
    } else {
      std::unique_ptr<machine::Machine>& slot =
          machines[request.spec.to_string()];
      if (slot == nullptr) {
        slot = std::make_unique<machine::Machine>(
            machine::Machine::build(request.spec));
      }
      m = slot.get();
    }

    std::unique_ptr<levnet::pram::PramProgram> program = machine::make_program(
        request.program, m->processors(), request.seed, request.steps, error);
    if (program == nullptr) fail(error);
    levnet::pram::SharedMemory memory;
    const levnet::emulation::EmulationReport report =
        faulted != nullptr
            ? faulted->run(*program, memory)
            : m->run_seeded(request.seed, *program, memory);

    program->reset();
    levnet::pram::SharedMemory reference;
    (void)levnet::pram::ReferencePram::for_program(*program).run(*program,
                                                                 reference);
    std::cout << (memory == reference ? 1 : 0) << "\t"
              << (program->validate(memory) ? 1 : 0) << "\t";
    machine::write_report_fields(std::cout, report);
    std::cout << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------- trace

/// Per-layer spans of the traced replay, in seconds.
struct Spans {
  std::vector<double> decode;
  std::vector<double> resolve_hit;
  std::vector<double> resolve_uncacheable;
  std::vector<double> make_program;
  std::vector<double> encode;
  double run = 0.0;
  std::uint64_t pram_steps = 0;
  std::uint64_t merges = 0;
  std::uint64_t rehash_attempts = 0;
  std::uint64_t transmissions = 0;
  std::uint32_t peak_in_flight = 0;
  serve::Farm::Counters cache;
};

/// Times `fn` into `spans->*field` when tracing; runs it bare otherwise.
template <typename Fn>
void span(Spans* spans, std::vector<double> Spans::*field, Fn&& fn) {
  if (spans == nullptr) {
    fn();
    return;
  }
  const Stopwatch watch;
  fn();
  (spans->*field).push_back(watch.seconds());
}

/// Runs request `seq` through the serve path on `farm`, the way a Session
/// with one worker would. Returns its seconds; `response` receives the
/// response line when non-null.
double serve_one(const std::string& line, std::size_t seq, serve::Farm& farm,
                 Spans* spans, std::string* response) {
  const Stopwatch total;
  serve::ServeRequest request;
  std::string error;
  bool decoded = false;
  span(spans, &Spans::decode, [&] {
    decoded = serve::decode_request(line, seq, kDefaultSteps, request, error);
  });
  if (!decoded) fail(error);
  if (request.spec.faults.any()) request.spec.seed = request.seed;

  const Stopwatch resolve_watch;
  const serve::Farm::Resolved resolved = farm.resolve(request.spec);
  if (spans != nullptr) {
    // A miss is a build under the farm's lock; builds are timed apart.
    const double seconds = resolve_watch.seconds();
    if (resolved.outcome == serve::CacheOutcome::kHit) {
      spans->resolve_hit.push_back(seconds);
    } else if (resolved.outcome == serve::CacheOutcome::kUncacheable) {
      spans->resolve_uncacheable.push_back(seconds);
    }
  }
  const machine::Machine* m = resolved.owned != nullptr
                                  ? resolved.owned.get()
                                  : resolved.shared.get();

  std::unique_ptr<levnet::pram::PramProgram> program;
  span(spans, &Spans::make_program, [&] {
    program = machine::make_program(request.program, m->processors(),
                                    request.seed, request.steps, error);
  });
  if (program == nullptr) fail(error);

  levnet::obs::Recorder recorder;
  levnet::obs::Recorder* rec = spans != nullptr ? &recorder : nullptr;
  levnet::pram::SharedMemory memory;
  const Stopwatch run_watch;
  const levnet::emulation::EmulationReport report =
      resolved.owned != nullptr
          ? resolved.owned->run(*program, memory, rec)
          : resolved.shared->run_seeded(request.seed, *program, memory, rec);
  if (spans != nullptr) {
    spans->run += run_watch.seconds();
    spans->pram_steps += report.pram_steps;
    using levnet::obs::Probe;
    spans->merges += recorder.counter(Probe::kCombiningMerges);
    spans->rehash_attempts += recorder.counter(Probe::kRehashAttempts);
    spans->transmissions += recorder.counter(Probe::kTransmissions);
    spans->peak_in_flight =
        std::max(spans->peak_in_flight, report.peak_in_flight);
  }

  std::ostringstream os;
  span(spans, &Spans::encode, [&] {
    serve::write_ok_response(os, request, resolved.outcome, report, nullptr);
  });
  if (response != nullptr) *response = os.str();
  return total.seconds();
}

/// Layer probes over the distinct fault-free specs of a request list.
struct Probes {
  double build_ms = 0.0;  // sum over specs of the median build
  double route_seconds = 0.0;
  std::uint64_t route_hops = 0;
  double sim_seconds = 0.0;
  std::uint64_t sim_transmissions = 0;
  std::uint64_t sim_steps = 0;
  double hash_seconds = 0.0;
  std::uint64_t hash_keys = 0;
};

/// Median of three builds of `spec`.
double median_build_ms(const machine::MachineSpec& spec) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const Stopwatch watch;
    const machine::Machine m = machine::Machine::build(spec);
    ms.push_back(watch.seconds() * 1e3);
  }
  return median(ms);
}

void probe_routing(const machine::Machine& m, Probes& probes) {
  // Walks P packets (at least 4096) from Router::prepare to delivery,
  // the decisions the engine asks for once per hop.
  const std::uint32_t p = m.processors();
  const std::uint32_t packets = std::max<std::uint32_t>(p, 4096);
  const std::uint32_t hop_cap = 64 * (m.route_scale() + 8);
  levnet::support::Rng rng(0x9e11'0bad'5eedULL);
  std::vector<levnet::sim::Packet> batch(packets);
  for (std::uint32_t i = 0; i < packets; ++i) {
    batch[i].id = i;
    batch[i].src = i % p;
    batch[i].dst = static_cast<std::uint32_t>(rng() % p);
  }
  std::uint64_t hops = 0;
  const Stopwatch watch;
  for (levnet::sim::Packet& packet : batch) {
    m.router().prepare(packet, rng);
    levnet::topology::NodeId at = packet.src;
    std::uint32_t walked = 0;
    while (true) {
      const levnet::topology::NodeId next =
          m.router().next_hop(packet, at, rng);
      if (next == levnet::topology::kInvalidNode) break;
      at = next;
      if (++walked > hop_cap) fail("routing walk exceeded its hop cap");
    }
    if (at != packet.dst) fail("routing walk ended off its destination");
    hops += walked;
  }
  probes.route_seconds += watch.seconds();
  probes.route_hops += hops;
}

void probe_sim(const machine::Machine& m, Probes& probes) {
  levnet::support::Rng rng(0x51a1'5eedULL);
  const levnet::sim::Workload workload =
      levnet::sim::permutation_workload(m.processors(), rng);
  const Stopwatch watch;
  const levnet::routing::RoutingOutcome outcome = levnet::routing::run_workload(
      m.graph(), m.router(), workload, m.engine_config(), rng);
  probes.sim_seconds += watch.seconds();
  if (!outcome.complete) fail("run_workload did not deliver every packet");
  probes.sim_transmissions += outcome.metrics.total_hops;
  probes.sim_steps += outcome.metrics.steps;
}

void probe_hashing(const machine::Machine& m, Probes& probes) {
  // The emulator's hash: degree S = the spec's hash-degree, or the route
  // scale L when unset (S = cL with c = 1), over P buckets.
  const std::uint32_t degree = m.spec().hash_degree != 0
                                   ? m.spec().hash_degree
                                   : m.route_scale();
  levnet::support::Rng rng(0x4a54'5eedULL);
  const levnet::hashing::PolynomialHash hash =
      levnet::hashing::PolynomialHash::sample(degree, m.processors(),
                                              m.processors(), rng);
  std::vector<std::uint64_t> keys(std::size_t{1} << 14);
  for (std::uint64_t& key : keys) key = rng() % m.processors();
  std::vector<std::uint64_t> out(keys.size());
  // About 2^26 Horner multiply-mods per spec, whatever its degree.
  const std::uint64_t rounds = std::max<std::uint64_t>(
      1, (std::uint64_t{1} << 26) / (keys.size() * degree));
  const Stopwatch watch;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    hash.evaluate_batch(keys.data(), keys.size(), out.data());
  }
  probes.hash_seconds += watch.seconds();
  probes.hash_keys += rounds * keys.size();
}

Probes run_probes(const std::vector<std::string>& lines) {
  Probes probes;
  std::vector<std::string> seen;
  for (const std::string& line : lines) {
    const PlainRequest request = parse_plain(line);
    if (request.spec.faults.any()) continue;
    const std::string key = request.spec.to_string();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);

    probes.build_ms += median_build_ms(request.spec);
    const machine::Machine m = machine::Machine::build(request.spec);
    probe_routing(m, probes);
    probe_sim(m, probes);
    probe_hashing(m, probes);
  }
  return probes;
}

void metric(std::ostream& os, bool& first, const char* name, double value) {
  os << (first ? "" : ", ") << "\"" << name << "\": " << value;
  first = false;
}

int trace(const std::string& path, std::size_t capacity) {
  const std::vector<std::string> lines = read_lines(path);
  // Plain and traced passes advance in lockstep on farms of their own,
  // alternating which goes first, so slow spells of the host hit both.
  serve::Farm plain_farm(serve::FarmConfig{capacity});
  serve::Farm traced_farm(serve::FarmConfig{capacity});
  Spans spans;
  double plain_seconds = 0.0;
  double traced_seconds = 0.0;
  for (std::size_t seq = 0; seq < lines.size(); ++seq) {
    std::string response;
    if (seq % 2 == 0) {
      plain_seconds += serve_one(lines[seq], seq, plain_farm, nullptr,
                                 &response);
      traced_seconds += serve_one(lines[seq], seq, traced_farm, &spans,
                                  nullptr);
    } else {
      traced_seconds += serve_one(lines[seq], seq, traced_farm, &spans,
                                  nullptr);
      plain_seconds += serve_one(lines[seq], seq, plain_farm, nullptr,
                                 &response);
    }
    // The plain response is the server's byte for byte; the recorder
    // adds latency quantiles to the traced one.
    std::cout << "R\t" << response << "\n";
  }
  spans.cache = traced_farm.counters();
  const Probes probes = run_probes(lines);

  const double steps = static_cast<double>(std::max<std::uint64_t>(
      spans.pram_steps, 1));
  const std::uint64_t resolves =
      spans.cache.hits + spans.cache.misses + spans.cache.uncacheable;
  // 0 when the requests hold no faulted spec, so no faulted machine is
  // built.
  const double faults_build_ms = median(spans.resolve_uncacheable) * 1e3;

  std::ostringstream os;
  os.precision(10);
  bool first = true;
  os << "{";
  metric(os, first, "serve.cache_hit_ratio",
         static_cast<double>(spans.cache.hits) /
             static_cast<double>(std::max<std::uint64_t>(resolves, 1)));
  metric(os, first, "serve.decode_us", median(spans.decode) * 1e6);
  metric(os, first, "serve.encode_us", median(spans.encode) * 1e6);
  metric(os, first, "serve.resolve_hit_us", median(spans.resolve_hit) * 1e6);
  metric(os, first, "machine.build_ms", probes.build_ms);
  metric(os, first, "faults.build_ms", faults_build_ms);
  metric(os, first, "pram.make_program_ms", median(spans.make_program) * 1e3);
  metric(os, first, "emulation.ms_per_pram_step", spans.run * 1e3 / steps);
  metric(os, first, "emulation.merges_per_pram_step",
         static_cast<double>(spans.merges) / steps);
  metric(os, first, "emulation.rehashes_per_pram_step",
         static_cast<double>(spans.rehash_attempts) / steps);
  metric(os, first, "sim.transmissions_per_pram_step",
         static_cast<double>(spans.transmissions) / steps);
  metric(os, first, "sim.ns_per_transmission",
         probes.sim_seconds * 1e9 /
             static_cast<double>(
                 std::max<std::uint64_t>(probes.sim_transmissions, 1)));
  metric(os, first, "sim.us_per_step",
         probes.sim_seconds * 1e6 /
             static_cast<double>(std::max<std::uint64_t>(probes.sim_steps, 1)));
  metric(os, first, "sim.peak_in_flight", spans.peak_in_flight);
  metric(os, first, "routing.ns_per_hop",
         probes.route_seconds * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(probes.route_hops, 1)));
  metric(os, first, "hashing.ns_per_key",
         probes.hash_seconds * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(probes.hash_keys, 1)));
  metric(os, first, "bench.trace_overhead_pct",
         (traced_seconds / plain_seconds - 1.0) * 100.0);
  metric(os, first, "cache_hits", static_cast<double>(spans.cache.hits));
  metric(os, first, "cache_misses", static_cast<double>(spans.cache.misses));
  metric(os, first, "cache_evictions",
         static_cast<double>(spans.cache.evictions));
  metric(os, first, "uncacheable",
         static_cast<double>(spans.cache.uncacheable));
  os << "}";
  std::cout << os.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: levnet_perfbench verify REQUESTS.jsonl\n"
      "       levnet_perfbench trace REQUESTS.jsonl --cache N\n";
  if (argc == 3 && std::string(argv[1]) == "verify") return verify(argv[2]);
  if (argc == 5 && std::string(argv[1]) == "trace" &&
      std::string(argv[3]) == "--cache") {
    unsigned long capacity = 0;
    if (!machine::parse_count(argv[4], capacity)) {
      std::cerr << usage;
      return 2;
    }
    return trace(argv[2], capacity);
  }
  std::cerr << usage;
  return 2;
}
