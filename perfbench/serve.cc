// The serve workload and the serve probe: an in-process serve::Server
// on loopback driven by serve::Client connections from this process.

#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using diva::serve::Client;
using diva::serve::Request;
using diva::serve::Response;
using diva::serve::Server;

constexpr int kSetupRounds = 15;
constexpr const char* kHost = "127.0.0.1";

/// State the clients share: updates are sent one at a time (the server
/// runs them one at a time anyway), so `base` can mirror the server's
/// current base and each delta's row ids and churn locality match it.
/// `base` and `rng` are guarded by `update_mutex`; deltas keep the row
/// count, so `rows` is read without it.
struct Traffic {
  Traffic(const Workload& workload_in, const Relation& base_in,
           uint64_t seed, Recorder* recorder_in)
      : workload(workload_in),
        recorder(recorder_in),
        rows(base_in.NumRows()),
        base(base_in),
        rng(seed ^ 0x5e7e5eULL) {}

  const Workload& workload;
  Recorder* recorder;
  const size_t rows;
  std::mutex update_mutex;
  Relation base;
  Rng rng;
};

/// The delta in the anonymize_cli/serve text format.
std::string DeltaText(const DeltaBatch& delta) {
  std::string text;
  for (diva::RowId row : delta.deleted) {
    text += "- " + std::to_string(row) + "\n";
  }
  for (const auto& fields : delta.inserted) {
    text += "+ ";
    for (size_t col = 0; col < fields.size(); ++col) {
      text += (col ? "," : "") + fields[col];
    }
    text += "\n";
  }
  return text;
}

std::unique_ptr<Server> StartServer(const Workload& workload,
                                    const Relation& base,
                                    const ConstraintSet& constraints,
                                    Recorder* recorder, int parent, int run) {
  diva::serve::ServerOptions options;
  options.host = kHost;
  options.sessions = 2;
  options.pipeline_threads = workload.shape.pipeline_threads;
  options.seed = workload.options.seed;
  // Batch-sized pipelines run for seconds; the wedge watchdog must not
  // cut them short (a cut run publishes a degraded snapshot).
  options.wedge_timeout_ms = 120000.0;
  ScopedSpan span(recorder, "serve.start", parent, run);
  auto server = std::make_unique<Server>(base, constraints, options);
  if (!recorder->Ok(server->Start(), "server start")) return nullptr;
  return server;
}

std::optional<Client> Connect(int port, Recorder* recorder, int parent,
                              int run) {
  ScopedSpan span(recorder, "serve.connect", parent, run);
  auto client = Client::Connect(kHost, port);
  if (!recorder->Ok(client.status(), "connect")) return std::nullopt;
  return std::move(client).value();
}

/// Sends one request and checks its response; `snapshot` is the
/// client's latest published snapshot (read by fetch/verify, set by
/// anonymize/update). Returns the response, or nullopt on a failure.
std::optional<Response> Send(Traffic* traffic, Client* client,
                              const std::string& verb, uint64_t* snapshot,
                              int parent, int run) {
  Recorder* recorder = traffic->recorder;
  const Workload& workload = traffic->workload;
  Request request;
  request.verb = verb;
  if (verb == "anonymize" || verb == "update") {
    request.params = workload.shape.params;
  } else if (verb == "fetch" || verb == "verify") {
    request.params["snapshot"] = std::to_string(*snapshot);
  }
  std::unique_lock<std::mutex> update_lock(traffic->update_mutex,
                                           std::defer_lock);
  DeltaBatch delta;
  if (verb == "update") {
    update_lock.lock();
    delta = MakeDelta(traffic->base, workload, &traffic->rng);
    request.body = DeltaText(delta);
  }

  recorder->Attempt();
  const double start = Now();
  auto response = [&] {
    ScopedSpan span(recorder, "serve." + verb, parent, run);
    return client->Call(request);
  }();
  const double elapsed = Now() - start;
  if (!recorder->Ok(response.status(), verb) ||
      !recorder->Ok(response->ToStatus(), verb)) {
    return std::nullopt;
  }
  if (verb == "anonymize" || verb == "update") {
    recorder->Sample(verb == "update" ? "delta_s" : "anonymize_s", elapsed);
    if (response->Field("audited", "0") != "1" ||
        response->Field("degraded", "1") != "0") {
      recorder->Fail(verb + " published an unaudited or degraded snapshot");
    }
    *snapshot = std::stoull(response->Field("snapshot", "0"));
  } else if (verb == "verify" && response->Field("verdict", "") != "pass") {
    recorder->Fail("verify of snapshot " + std::to_string(*snapshot) +
                   " did not pass");
  } else if (verb == "fetch" &&
             (response->Field("rows", "") !=
                  std::to_string(traffic->rows) ||
              response->body.empty())) {
    recorder->Fail("fetch returned the wrong relation");
  }
  if (verb == "update") {
    auto applied = diva::ApplyDeltaToRelation(traffic->base, delta);
    if (!recorder->Ok(applied.status(), "mirror update")) return std::nullopt;
    if (applied->NumRows() != traffic->rows) {
      recorder->Fail("update changed the row count");
      return std::nullopt;
    }
    traffic->base = std::move(applied).value();
  }
  return std::move(response).value();
}

/// Stops the server and checks the serving invariants: every request
/// answered or counted as a failed response, nothing left in flight,
/// every retained snapshot audited.
void StopAndCheck(Server* server, Recorder* recorder) {
  server->Stop();
  recorder->Attempt();
  const diva::serve::ServerStats stats = server->stats();
  if (stats.requests + stats.protocol_errors !=
      stats.responses + stats.response_failures) {
    recorder->Fail("server lost track of a request");
  }
  if (server->inflight() != 0) recorder->Fail("requests in flight after Stop");
  for (uint64_t id = 1; id <= server->snapshots().latest_id(); ++id) {
    auto snapshot = server->snapshots().Find(id);
    if (snapshot != nullptr && !snapshot->audited) {
      recorder->Fail("unaudited snapshot " + std::to_string(id));
    }
  }
  recorder->Value("serve.shed", static_cast<double>(stats.shed));
  recorder->Value("serve.degraded", static_cast<double>(stats.degraded));
  recorder->Value("serve.watchdog_cancels",
                  static_cast<double>(stats.watchdog_cancels));
  recorder->Value("serve.response_failures",
                  static_cast<double>(stats.response_failures));
}

/// One client's closed-loop request cycle: diva_loadgen's traffic
/// (anonymize, with a verify of every third publish right after it),
/// plus a fetch of that snapshot and a ping per three publishes, and
/// one update per twelve. The fetch, ping and update shares are this
/// benchmark's choice: reads as frequent as the verifies, and writes
/// rare. Over the 25 requests: 48% anonymize, 16% each verify, fetch
/// and ping, 4% update.
constexpr const char* kCycle[] = {
    "anonymize", "verify", "fetch", "ping", "anonymize", "anonymize",
    "anonymize", "verify", "fetch", "ping", "anonymize", "anonymize",
    "anonymize", "verify", "fetch", "ping", "anonymize", "anonymize",
    "anonymize", "verify", "fetch", "ping", "anonymize", "anonymize",
    "update"};
constexpr size_t kCycleLength = sizeof(kCycle) / sizeof(kCycle[0]);

/// A started server and a connected client.
struct Served {
  std::unique_ptr<Server> server;
  std::optional<Client> client;

  void Close() {
    client.reset();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

/// One set-up round: inputs read and parsed, a server started on them, a
/// client connected and its first ping answered; timed as a `setup_s`
/// sample.
bool SetupRound(const Workload& workload, int round, Recorder* recorder,
                Relation* base, ConstraintSet* constraints, Served* served) {
  recorder->Attempt();
  ScopedSpan span(recorder, "setup", -1, round);
  const double start = Now();
  if (!recorder->Ok(
          LoadInputs(workload, recorder, span.id(), round, base, constraints),
          "setup")) {
    return false;
  }
  served->server =
      StartServer(workload, *base, *constraints, recorder, span.id(), round);
  if (served->server == nullptr) return false;
  served->client = Connect(served->server->port(), recorder, span.id(), round);
  if (!served->client.has_value()) return false;
  ScopedSpan ping_span(recorder, "serve.ping", span.id(), round);
  auto pong = served->client->Call(Request{"ping", {}, ""});
  if (!recorder->Ok(pong.status(), "ping") ||
      !recorder->Ok(pong->ToStatus(), "ping")) {
    return false;
  }
  recorder->Sample("setup_s", Now() - start);
  return true;
}

}  // namespace

void RunServeWorkload(const Workload& workload, double seconds,
                      uint64_t seed, Recorder* recorder) {
  Relation base(workload.schema);
  ConstraintSet constraints;
  Served served;
  for (int round = 0; round < kSetupRounds; ++round) {
    served.Close();
    if (!SetupRound(workload, round, recorder, &base, &constraints, &served)) {
      return;
    }
  }
  recorder->Value("size.rows", static_cast<double>(base.NumRows()));
  recorder->Value("size.constraints", static_cast<double>(constraints.size()));
  recorder->Value("size.clients", static_cast<double>(workload.shape.clients));
  std::unique_ptr<Server> server = std::move(served.server);
  std::optional<Client> first = std::move(served.client);

  if (recorder->tracing()) {
    MeasurePipeline(workload, base, constraints, seconds / 2, recorder);
  }

  Traffic traffic(workload, base, seed, recorder);
  // The paper's quality figures of the first publish on the generated
  // base, before any update changes it.
  uint64_t published = 0;
  auto anonymized = Send(&traffic, &*first, "anonymize", &published, -1, 0);
  auto verified = Send(&traffic, &*first, "verify", &published, -1, 0);
  if (!anonymized.has_value() || !verified.has_value()) return;
  recorder->Value("stars", std::stod(verified->Field("added_stars", "0")));
  recorder->Value("satisfied",
                  static_cast<double>(constraints.size()) -
                      std::stod(anonymized->Field("unsatisfied", "0")));

  std::vector<std::optional<Client>> clients;
  clients.push_back(std::move(first));
  {
    ScopedSpan load_span(recorder, "serve.load", -1, 0);
    for (size_t c = 1; c < workload.shape.clients; ++c) {
      clients.push_back(Connect(server->port(), recorder, load_span.id(),
                                static_cast<int>(c)));
      if (!clients.back().has_value()) return;
    }
    const double stop = Now() + seconds;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        // Each client enters the cycle at a seeded point.
        Rng rng(seed * 7919 + c);
        size_t next = rng.NextBounded(kCycleLength);
        uint64_t snapshot = published;
        while (Now() < stop) {
          if (!Send(&traffic, &*clients[c], kCycle[next], &snapshot,
                     load_span.id(), static_cast<int>(c))) {
            return;
          }
          next = (next + 1) % kCycleLength;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  clients.clear();
  StopAndCheck(server.get(), recorder);

  // As many set-up rounds again after the load, so set-up is sampled at
  // both ends of the run.
  for (int round = kSetupRounds; round < 2 * kSetupRounds; ++round) {
    Relation loaded(workload.schema);
    ConstraintSet parsed;
    Served extra;
    if (!SetupRound(workload, round, recorder, &loaded, &parsed, &extra)) {
      return;
    }
    extra.Close();
  }
}

void RunServeProbe(const Workload& workload, const Relation& base,
                   const ConstraintSet& constraints, uint64_t seed,
                   Recorder* recorder) {
  ScopedSpan probe_span(recorder, "serve.probe", -1, 0);
  std::unique_ptr<Server> server =
      StartServer(workload, base, constraints, recorder, probe_span.id(), 0);
  if (server == nullptr) return;
  {
    std::optional<Client> client =
        Connect(server->port(), recorder, probe_span.id(), 0);
    if (!client.has_value()) return;
    Traffic traffic(workload, base, seed, recorder);
    ScopedSpan load_span(recorder, "serve.load", probe_span.id(), 0);
    uint64_t snapshot = 0;
    for (const char* verb :
         {"ping", "ping", "ping", "ping", "ping", "anonymize", "verify",
          "fetch", "update", "anonymize", "verify", "fetch", "update"}) {
      if (!Send(&traffic, &*client, verb, &snapshot, load_span.id(), 0)) {
        return;
      }
    }
  }
  StopAndCheck(server.get(), recorder);
}

}  // namespace perfbench
