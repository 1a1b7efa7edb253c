#include "driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "host/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/jobgen.h"
#include "workload/tenantplan.h"

namespace perfbench {

using namespace mccp;
using workload::ClassJobStream;
using workload::ClassReport;
using workload::GeneratedJob;
using workload::ScenarioSpec;

namespace {

double seconds_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) / 1e9; }

ClassReport class_report(const workload::ClassSpec& cs) {
  ClassReport rep;
  rep.name = cs.profile.name;
  rep.mode = workload::mode_name(cs.profile.mode);
  rep.priority = cs.profile.priority;
  rep.channels = cs.channels;
  rep.tenant = cs.tenant;
  return rep;
}

/// The shared completion accounting of both drivers (the runner's on_done).
struct Accounting {
  RunResult& out;
  const Injection& inject;

  void sealed(std::size_t cls, std::uint64_t k, std::int64_t t0, bool auth_ok,
              std::uint32_t rejections, sim::Cycle submit, sim::Cycle accept,
              sim::Cycle complete, const Bytes& payload, const Bytes& tag) {
    finish(t0);
    ClassReport& rep = out.report.classes[cls];
    ++rep.completed;
    rep.busy_rejections += rejections;
    rep.last_complete_cycle = std::max(rep.last_complete_cycle, complete);
    JobOutput& o = out.outputs[cls][k];
    o.done = true;
    o.auth_ok = auth_ok;
    if (!auth_ok) {
      ++rep.auth_failures;
      return;
    }
    o.payload = payload;
    o.tag = tag;
    rep.latency.record(complete - submit);
    out.latency_cycles.push_back(static_cast<double>(complete - submit));
    if (accept > 0 && accept >= submit) {
      rep.service.record(complete - accept);
      out.queue_wait.record(accept - submit);
    }
  }

  void verified(std::size_t cls, std::uint64_t k, std::int64_t t0, bool auth_ok,
                std::uint32_t rejections, sim::Cycle complete, const Bytes& payload) {
    finish(t0);
    ClassReport& rep = out.report.classes[cls];
    ++rep.decrypt_completed;
    rep.busy_rejections += rejections;
    rep.last_complete_cycle = std::max(rep.last_complete_cycle, complete);
    if (!auth_ok) ++rep.auth_failures;
    JobOutput& o = out.outputs[cls][k];
    o.verify_done = true;
    o.verify_ok = auth_ok;
    o.verify_payload = payload;
  }

 private:
  void finish(std::int64_t t0) {
    out.request_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    ++out.jobs_completed;
    spin_ns(inject.callback_ns);
  }
};

std::unique_ptr<host::Engine> make_engine(const ScenarioSpec& spec, bool decorate,
                                          std::int64_t step_delay_ns,
                                          std::vector<const TimedDevice*>& timed) {
  host::EngineConfig cfg = workload::engine_config_from(spec);
  if (!decorate) return std::make_unique<host::Engine>(cfg);
  // The same fleet Engine(EngineConfig) builds, each device wrapped.
  std::vector<std::unique_ptr<host::Device>> devices;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, cfg.num_devices); ++i) {
    top::MccpConfig device_cfg = cfg.device;
    if (i < cfg.slot_layouts.size() && !cfg.slot_layouts[i].empty())
      device_cfg.slot_images = cfg.slot_layouts[i];
    std::unique_ptr<host::Device> inner;
    if (cfg.backend == host::Backend::kFast)
      inner = std::make_unique<host::FastDevice>(device_cfg, "fast" + std::to_string(i));
    else
      inner = std::make_unique<host::SimDevice>(device_cfg, "mccp" + std::to_string(i));
    auto dev = std::make_unique<TimedDevice>(std::move(inner), step_delay_ns);
    timed.push_back(dev.get());
    devices.push_back(std::move(dev));
  }
  auto engine = std::make_unique<host::Engine>(std::move(devices), cfg.placement, cfg.num_workers);
  for (const qos::TenantConfig& t : cfg.tenants) engine->register_tenant(t);
  return engine;
}

void check_supported(const ScenarioSpec& spec) {
  if (!spec.faults.empty() || spec.autoscale.enabled)
    throw std::runtime_error("scenario " + spec.name +
                             ": membership events and autoscale are not benchmarked");
  if (spec.window == 0 || spec.classes.empty())
    throw std::runtime_error("scenario " + spec.name + ": needs a window and classes");
}

/// Count a refused arrival (tenant plan or planned drop); false = accepted.
bool refuse(const workload::AdmissionPlan& plan, std::size_t cls, ClassJobStream& stream,
            ClassReport& rep, Ledger* ledger) {
  const qos::Decision d = plan.decision(cls, stream.generated());
  const bool drop = d == qos::Decision::kAccept && plan.drop(cls, stream.generated());
  if (d == qos::Decision::kAccept && !drop) return false;
  {
    Span s(ledger, kGen);
    stream.skip();
  }
  ++rep.offered;
  if (drop)
    ++rep.dropped;
  else if (d == qos::Decision::kThrottle)
    ++rep.throttled;
  else
    ++rep.shed;
  return true;
}

}  // namespace

RunResult run_inproc(const ScenarioSpec& spec, bool traced, const Injection& inject) {
  check_supported(spec);
  RunResult out;
  out.traced = traced;
  const std::int64_t setup_start = now_ns();

  std::vector<const TimedDevice*> timed;
  const bool decorate = traced || inject.device_step_ns > 0;
  std::unique_ptr<host::Engine> engine_ptr =
      make_engine(spec, decorate, inject.device_step_ns, timed);
  host::Engine& engine = *engine_ptr;
  const std::int64_t plan_start = now_ns();
  const workload::AdmissionPlan plan = workload::build_admission_plan(spec);
  out.plan_s = seconds_since(plan_start);

  const std::size_t num_classes = spec.classes.size();
  for (std::size_t i = 0; i < num_classes; ++i)
    engine.provision_key(static_cast<top::KeyId>(i + 1),
                         workload::class_key(spec.seed, i, spec.classes[i].profile.key_len));

  struct ClassState {
    std::unique_ptr<ClassJobStream> stream;
    std::vector<host::Channel> channels;
    std::size_t next_channel = 0;
  };
  std::vector<ClassState> states(num_classes);
  out.outputs.resize(num_classes);
  for (std::size_t i = 0; i < num_classes; ++i) {
    const workload::ClassSpec& cs = spec.classes[i];
    states[i].stream = std::make_unique<ClassJobStream>(cs, spec.seed, i, spec.max_cycles);
    out.report.classes.push_back(class_report(cs));
    for (std::size_t c = 0; c < cs.channels; ++c) {
      host::Channel ch = engine.open_channel(cs.profile.mode, static_cast<top::KeyId>(i + 1),
                                             cs.profile.tag_len, cs.profile.nonce_len,
                                             cs.tenant_id);
      if (!ch) throw std::runtime_error("open_channel failed for class " + cs.profile.name);
      states[i].channels.push_back(std::move(ch));
    }
  }
  out.setup_s = seconds_since(setup_start);

  std::unique_ptr<Ledger> ledger_owner;
  if (traced) ledger_owner = std::make_unique<Ledger>(timed, engine.num_workers());
  Ledger* ledger = ledger_owner.get();
  Accounting acct{out, inject};

  std::vector<sim::Cycle> cycles_at_start;
  for (std::size_t d = 0; d < engine.num_devices(); ++d)
    cycles_at_start.push_back(engine.device(d).now());
  const sim::Cycle start_cycle = engine.max_cycle();
  std::size_t inflight = 0;
  std::size_t peak_inflight = 0;
  out.request_us.reserve(4096);
  const std::int64_t run_start = now_ns();

  while (true) {
    const sim::Cycle now = engine.max_cycle();
    for (std::size_t ci = 0; ci < num_classes; ++ci) {
      ClassState& st = states[ci];
      const workload::ClassSpec& cs = spec.classes[ci];
      ClassReport& rep = out.report.classes[ci];
      ClassJobStream& stream = *st.stream;
      if (!stream.next_time() || *stream.next_time() > static_cast<double>(now)) continue;

      std::vector<std::vector<std::pair<GeneratedJob, std::uint64_t>>> batches(st.channels.size());
      std::vector<std::size_t> batch_order;
      std::size_t batched = 0;
      while (stream.next_time() && *stream.next_time() <= static_cast<double>(now)) {
        if (refuse(plan, ci, stream, rep, ledger)) continue;
        if (cs.tenant_id != 0) {
          const qos::TenantConfig& tc = engine.tenants().config(cs.tenant_id);
          if (tc.quota != 0 && engine.tenants().runtime(cs.tenant_id).inflight + batched >= tc.quota) {
            ++out.quota_holds;
            break;
          }
        }
        if (inflight >= spec.window) break;
        const std::size_t ch = st.next_channel;
        st.next_channel = (st.next_channel + 1) % st.channels.size();
        if (batches[ch].empty()) batch_order.push_back(ch);
        const std::uint64_t k = out.outputs[ci].size();
        out.outputs[ci].emplace_back();
        {
          Span s(ledger, kGen);
          batches[ch].emplace_back(stream.take(), k);
        }
        ++batched;
        ++rep.offered;
        ++inflight;
      }
      peak_inflight = std::max(peak_inflight, inflight);

      for (std::size_t ch : batch_order) {
        if (rep.submitted == 0)
          rep.first_submit_cycle = engine.device(st.channels[ch].device_index()).now();
        std::vector<host::JobSpec> specs;
        specs.reserve(batches[ch].size());
        for (auto& [gen, k] : batches[ch]) {
          rep.payload_bytes += gen.job.payload.size();
          specs.push_back(std::move(gen.job));
        }
        rep.submitted += specs.size();
        out.jobs_attempted += specs.size();
        const std::int64_t t0 = now_ns();
        std::vector<host::Completion> jobs;
        {
          Span s(ledger, kHostSubmit);
          jobs = engine.submit_batch(st.channels[ch], std::move(specs));
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          auto& [gen, k] = batches[ch][i];
          if (!gen.verify) {
            jobs[i].on_done([&acct, &inflight, ledger, ci, k, t0](const host::JobResult& r) {
              Span s(ledger, kCallback);
              --inflight;
              acct.sealed(ci, k, t0, r.auth_ok, r.rejections, r.submit_cycle, r.accept_cycle,
                          r.complete_cycle, r.payload, r.tag);
            });
            continue;
          }
          // Decrypt/verify round-trip, resubmitted from the callback on the
          // same channel, sharing the window (as the runner does).
          jobs[i].on_done([&acct, &out, &engine, &st, &inflight, &peak_inflight, ledger, ci, k,
                           t0, ch, remac = cs.profile.mode == host::ChannelMode::kCbcMac,
                           priority = cs.profile.priority, iv = std::move(gen.verify_iv),
                           aad = std::move(gen.verify_aad),
                           msg = std::move(gen.verify_msg)](const host::JobResult& r) {
            Span s(ledger, kCallback);
            --inflight;
            acct.sealed(ci, k, t0, r.auth_ok, r.rejections, r.submit_cycle, r.accept_cycle,
                        r.complete_cycle, r.payload, r.tag);
            if (!r.auth_ok) return;
            ++inflight;
            peak_inflight = std::max(peak_inflight, inflight);
            ++out.report.classes[ci].decrypt_submitted;
            ++out.jobs_attempted;
            const std::int64_t t1 = now_ns();
            Span submit(ledger, kHostSubmit);
            engine.submit_decrypt(st.channels[ch], iv, aad, remac ? msg : r.payload, r.tag, priority)
                .on_done([&acct, &inflight, ledger, ci, k, t1](const host::JobResult& r2) {
                  Span s2(ledger, kCallback);
                  --inflight;
                  acct.verified(ci, k, t1, r2.auth_ok, r2.rejections, r2.complete_cycle,
                                r2.payload);
                });
          });
        }
      }
    }

    if (inflight == 0) {
      std::optional<double> next;
      for (ClassState& st : states) {
        const std::optional<double>& t = st.stream->next_time();
        if (t && (!next || *t < *next)) next = t;
      }
      if (!next) break;
      Span s(ledger, kHostStep);
      engine.advance_to(static_cast<sim::Cycle>(std::ceil(*next)));
    } else {
      Span s(ledger, kHostStep);
      engine.step();
    }
    ++out.trace.engine_steps;
  }
  out.run_s = seconds_since(run_start);

  out.report.scenario = spec.name;
  out.report.backend = workload::backend_name(spec.backend);
  out.report.devices = spec.devices;
  out.report.threads = engine.num_workers();
  out.report.window = spec.window;
  out.report.makespan_cycles = engine.max_cycle() - start_cycle;
  out.report.peak_inflight = peak_inflight;
  out.report.reconfigurations = engine.reconfigurations();
  out.report.reconfig_stall_cycles = engine.reconfig_stall_cycles();
  for (std::size_t i = 0; i < num_classes; ++i)
    out.report.classes[i].image_reconfigurations =
        engine.reconfigurations_to(host::image_for_mode(spec.classes[i].profile.mode));

  if (ledger != nullptr) {
    ledger->flush_devices();
    TraceTotals& t = out.trace;
    t.self_ns = ledger->self_ns;
    t.device_path_ns = ledger->device_path_ns;
    for (std::size_t d = 0; d < timed.size(); ++d) {
      for (int op = 0; op < kDevOpCount; ++op) {
        t.device_ns[op] += timed[d]->ns(static_cast<DeviceOp>(op));
        t.device_calls[op] += timed[d]->calls(static_cast<DeviceOp>(op));
      }
      t.device_rounds += timed[d]->rounds();
      t.device_cycles += engine.device(d).now() - cycles_at_start[d];
    }
  }
  return out;
}

RunResult run_net(const ScenarioSpec& spec, bool traced, const Injection& inject) {
  check_supported(spec);
  RunResult out;
  out.traced = traced;
  const std::size_t num_classes = spec.classes.size();
  const std::int64_t setup_start = now_ns();

  // The server's event loop runs on its own thread for the whole replay;
  // declared before the clients so they say GOODBYE before it stops.
  struct ServerThread {
    explicit ServerThread(net::ServerConfig cfg) : server(std::move(cfg)) {
      loop = std::thread([this] { server.run(); });
    }
    ~ServerThread() {
      server.stop();
      loop.join();
    }
    net::Server server;
    std::thread loop;
  };
  net::ServerConfig server_cfg;
  server_cfg.engine = workload::engine_config_from(spec);
  ServerThread st(std::move(server_cfg));

  // One connection per tenant in use (a session's tenant is fixed at HELLO).
  std::map<std::uint16_t, std::unique_ptr<net::Client>> clients;
  for (const workload::ClassSpec& cs : spec.classes) {
    if (clients.count(cs.tenant_id)) continue;
    net::ClientConfig cc;
    cc.port = st.server.port();
    cc.name = "perfbench#" + std::to_string(cs.tenant_id);
    cc.tenant = cs.tenant_id;
    clients[cs.tenant_id] = std::make_unique<net::Client>(cc);
  }
  net::Client& first = *clients.begin()->second;
  for (std::size_t i = 0; i < num_classes; ++i)
    first.provision_key(static_cast<std::uint8_t>(i + 1),
                        workload::class_key(spec.seed, i, spec.classes[i].profile.key_len));
  std::vector<std::vector<std::uint32_t>> wire(num_classes);
  for (std::size_t i = 0; i < num_classes; ++i) {
    const workload::ClassSpec& cs = spec.classes[i];
    for (std::size_t c = 0; c < cs.channels; ++c)
      wire[i].push_back(clients[cs.tenant_id]
                            ->open_channel(static_cast<std::uint8_t>(cs.profile.mode),
                                           static_cast<std::uint8_t>(i + 1),
                                           static_cast<std::uint8_t>(cs.profile.tag_len),
                                           static_cast<std::uint8_t>(cs.profile.nonce_len))
                            .channel);
  }
  const std::int64_t plan_start = now_ns();
  const workload::AdmissionPlan plan = workload::build_admission_plan(spec);
  out.plan_s = seconds_since(plan_start);
  std::vector<std::unique_ptr<ClassJobStream>> streams;
  out.outputs.resize(num_classes);
  for (std::size_t i = 0; i < num_classes; ++i) {
    streams.push_back(std::make_unique<ClassJobStream>(spec.classes[i], spec.seed, i, spec.max_cycles));
    out.report.classes.push_back(class_report(spec.classes[i]));
  }
  std::map<std::uint16_t, std::size_t> tenant_inflight;
  out.setup_s = seconds_since(setup_start);

  std::unique_ptr<Ledger> ledger_owner;
  if (traced) ledger_owner = std::make_unique<Ledger>(std::vector<const TimedDevice*>{}, 1);
  Ledger* ledger = ledger_owner.get();
  Accounting acct{out, inject};
  std::size_t inflight = 0;
  std::uint64_t next_job_id = std::uint64_t{1} << 32;  // above the request-id space

  auto poll_one = [&](net::Client& c) {
    if (ledger != nullptr) ledger->enter(kNetPoll);
    const std::size_t n = c.poll(0);
    if (ledger != nullptr) ledger->leave(n == 0 ? kNetIdle : kNetPoll);
  };
  auto poll_all = [&] {
    for (auto& [tid, c] : clients) poll_one(*c);
  };

  out.request_us.reserve(4096);
  const std::int64_t run_start = now_ns();
  while (true) {
    // Earliest pending arrival across classes (ties: lowest class), with
    // plan refusals consumed on the way.
    std::optional<std::size_t> pick;
    for (std::size_t i = 0; i < num_classes; ++i) {
      ClassJobStream& s = *streams[i];
      while (s.next_time() && refuse(plan, i, s, out.report.classes[i], ledger)) {
      }
      if (s.next_time() && (!pick || *s.next_time() < *streams[*pick]->next_time())) pick = i;
    }
    if (!pick) break;
    const std::size_t ci = *pick;
    const workload::ClassSpec& cs = spec.classes[ci];
    const std::size_t quota =
        cs.tenant_id != 0 ? spec.tenants[cs.tenant_id - 1].quota : 0;
    if (quota != 0 && tenant_inflight[cs.tenant_id] >= quota) ++out.quota_holds;
    while ((quota != 0 && tenant_inflight[cs.tenant_id] >= quota) || inflight >= spec.window)
      poll_all();

    ClassReport& rep = out.report.classes[ci];
    const std::uint64_t k = out.outputs[ci].size();
    out.outputs[ci].emplace_back();
    std::optional<GeneratedJob> gen;
    {
      Span s(ledger, kGen);
      gen = streams[ci]->take();
    }
    ++rep.offered;
    ++rep.submitted;
    ++out.jobs_attempted;
    rep.payload_bytes += gen->job.payload.size();
    ++inflight;
    ++tenant_inflight[cs.tenant_id];

    net::Client& client = *clients[cs.tenant_id];
    const std::uint32_t channel = wire[ci][k % cs.channels];
    const auto priority = static_cast<std::uint8_t>(gen->job.priority);
    net::SubmitJob job;
    job.job_id = next_job_id++;
    job.priority = priority;
    job.iv = std::move(gen->job.iv_or_nonce);
    job.aad = std::move(gen->job.aad);
    job.payload = std::move(gen->job.payload);

    auto on_sealed = [&, ci, k, tid = cs.tenant_id, channel, priority,
                      remac = cs.profile.mode == host::ChannelMode::kCbcMac,
                      verify = gen->verify, iv = std::move(gen->verify_iv),
                      aad = std::move(gen->verify_aad), msg = std::move(gen->verify_msg),
                      t0 = now_ns()](const net::CompletionFrame& c) {
      Span s(ledger, kCallback);
      --inflight;
      --tenant_inflight[tid];
      if (out.report.classes[ci].completed == 0 ||
          c.submit_cycle < out.report.classes[ci].first_submit_cycle)
        out.report.classes[ci].first_submit_cycle = c.submit_cycle;
      acct.sealed(ci, k, t0, c.auth_ok, c.rejections, c.submit_cycle, c.accept_cycle,
                  c.complete_cycle, c.payload, c.tag);
      if (!verify || !c.auth_ok) return;
      ++inflight;
      ++out.report.classes[ci].decrypt_submitted;
      ++out.jobs_attempted;
      net::SubmitJob open;
      open.job_id = next_job_id++;
      open.decrypt = true;
      open.priority = priority;
      open.iv = iv;
      open.aad = aad;
      open.payload = remac ? msg : c.payload;
      open.tag = c.tag;
      Span send(ledger, kNetSend);
      clients[tid]->submit(channel, std::move(open),
                           [&, ci, k, t1 = now_ns()](const net::CompletionFrame& c2) {
                             Span s2(ledger, kCallback);
                             --inflight;
                             acct.verified(ci, k, t1, c2.auth_ok, c2.rejections,
                                           c2.complete_cycle, c2.payload);
                           });
    };
    {
      Span s(ledger, kNetSend);
      client.submit(channel, std::move(job), std::move(on_sealed));
    }
    poll_one(client);
  }
  while (inflight > 0) poll_all();
  out.run_s = seconds_since(run_start);

  out.server_frames = st.server.frames_received() + st.server.completions_sent();
  out.report.scenario = spec.name;
  out.report.backend = workload::backend_name(spec.backend);
  out.report.devices = spec.devices;
  out.report.window = spec.window;
  if (ledger != nullptr) {
    out.trace.self_ns = ledger->self_ns;
  }
  return out;
}

}  // namespace perfbench
