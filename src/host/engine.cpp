#include "host/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/simulation.h"

namespace mccp::host {

namespace {
/// Ceiling on one quiet fleet fast-forward, so a wait loop's budget checks
/// and stranded-work checks still run at a bounded cadence even across a
/// long inert stretch (e.g. a bitstream transfer).
constexpr sim::Cycle kQuietStride = 1 << 20;
}  // namespace

// ---- Completion -------------------------------------------------------------

const JobResult& Completion::result() const {
  if (!state_) throw std::logic_error("Completion::result: invalid (default) completion");
  if (!state_->done)
    throw std::logic_error("Completion::result: job " + std::to_string(state_->id) +
                           " still in flight; poll done() or wait() first");
  return state_->result;
}

void Completion::on_done(std::function<void(const JobResult&)> fn) {
  if (!state_) throw std::logic_error("Completion::on_done: invalid (default) completion");
  if (state_->done) {
    fn(state_->result);  // already complete: fire immediately, exactly once
    return;
  }
  state_->callbacks.push_back(std::move(fn));
}

const JobResult& Completion::wait(sim::Cycle max_cycles) & {
  if (!state_ || engine_ == nullptr)
    throw std::logic_error("Completion::wait: invalid (default) completion");
  sim::Cycle start = engine_->max_cycle();
  while (!state_->done) {
    if (engine_->max_cycle() - start > max_cycles)
      throw std::runtime_error("Completion::wait: job " + std::to_string(state_->id) +
                               " did not complete within max_cycles");
    engine_->round(kQuietStride);
  }
  return state_->result;
}

// ---- ChannelStats / Channel -------------------------------------------------

double ChannelStats::throughput_mbps() const {
  if (last_complete_cycle <= first_submit_cycle) return 0.0;
  return sim::throughput_mbps(payload_bytes * 8, last_complete_cycle - first_submit_cycle);
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    engine_ = std::exchange(other.engine_, nullptr);
    uid_ = std::exchange(other.uid_, 0);
    device_ = std::exchange(other.device_, 0);
    info_ = other.info_;
  }
  return *this;
}

void Channel::close() {
  if (engine_ != nullptr) {
    engine_->release_channel(uid_);
    engine_ = nullptr;
    uid_ = 0;
  }
}

const ChannelStats& Channel::stats() const {
  static const ChannelStats kEmpty{};
  if (engine_ == nullptr) return kEmpty;
  const ChannelStats* s = engine_->channel_stats(uid_);
  return s != nullptr ? *s : kEmpty;
}

const ChannelInfo& Channel::info() const {
  if (engine_ != nullptr)
    if (const auto* rec = engine_->channel_record(uid_)) return rec->info;
  return info_;
}

std::size_t Channel::device_index() const {
  if (engine_ != nullptr)
    if (const auto* rec = engine_->channel_record(uid_)) return rec->device;
  return device_;
}

// ---- Engine -----------------------------------------------------------------

Engine::Engine(const EngineConfig& config) : placement_(config.placement) {
  std::size_t n = std::max<std::size_t>(1, config.num_devices);
  for (std::size_t i = 0; i < n; ++i) {
    top::MccpConfig device_cfg = config.device;
    if (i < config.slot_layouts.size() && !config.slot_layouts[i].empty())
      device_cfg.slot_images = config.slot_layouts[i];
    if (config.backend == Backend::kFast) {
      devices_.push_back(std::make_unique<FastDevice>(device_cfg, "fast" + std::to_string(i)));
      sim_devices_.push_back(nullptr);
    } else {
      auto dev = std::make_unique<SimDevice>(device_cfg, "mccp" + std::to_string(i));
      sim_devices_.push_back(dev.get());
      devices_.push_back(std::move(dev));
    }
  }
  inflight_.resize(devices_.size());
  scans_.resize(devices_.size());
  draining_.resize(devices_.size(), 0);
  devices_created_ = devices_.size();
  build_config_ = config;
  config_built_ = true;
  for (const qos::TenantConfig& t : config.tenants) tenants_.register_tenant(t);
  for (const DeviceFault& f : config.faults) inject_fault(f.device, f.kill_at_cycle);
  workers_ = std::min(config.num_workers, devices_.size());
  ensure_pool();
}

Engine::Engine(std::vector<std::unique_ptr<Device>> devices, Placement placement,
               std::size_t num_workers)
    : devices_(std::move(devices)), placement_(placement) {
  if (devices_.empty()) throw std::invalid_argument("Engine: need at least one device");
  for (auto& d : devices_) sim_devices_.push_back(dynamic_cast<SimDevice*>(d.get()));
  inflight_.resize(devices_.size());
  scans_.resize(devices_.size());
  draining_.resize(devices_.size(), 0);
  devices_created_ = devices_.size();
  workers_ = std::min(num_workers, devices_.size());
  ensure_pool();
}

Engine::~Engine() = default;

void Engine::provision_key(top::KeyId id, const Bytes& session_key) {
  key_table_[id] = session_key;
  for (auto& d : devices_)
    if (d) d->provision_key(id, session_key);
}

std::size_t Engine::device_load(std::size_t i) const {
  return devices_[i]->inflight() + devices_[i]->open_channel_count();
}

std::size_t Engine::pick_device(ChannelMode mode) const {
  // Personality-aware sharding (paper SVII.B): candidates are the devices
  // with a slot already hosting this mode's core image — placing there
  // costs no bitstream transfer. When no device in the fleet hosts it,
  // every device is an equal candidate; whichever the policy picks will
  // acquire the image (or reject) per its reconfiguration policy.
  // Tombstoned, draining and failed devices are never candidates.
  const reconfig::CoreImage img = image_for_mode(mode);
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (placeable(i) && devices_[i]->slots_with_image(img) > 0) cands.push_back(i);
  if (cands.empty())
    for (std::size_t i = 0; i < devices_.size(); ++i)
      if (placeable(i)) cands.push_back(i);
  if (cands.empty()) return devices_.size();  // nowhere to place

  switch (placement_) {
    case Placement::kRoundRobin: {
      // First candidate at or after this image's cursor, wrapping.
      const std::size_t start = rr_next_[static_cast<std::size_t>(img)] % devices_.size();
      for (std::size_t i : cands)
        if (i >= start) return i;
      return cands.front();
    }
    case Placement::kLeastLoaded: {
      std::size_t best = cands.front();
      for (std::size_t i : cands)
        if (device_load(i) < device_load(best)) best = i;
      return best;
    }
    case Placement::kModeAffinity: {
      // Prefer the least-loaded device already hosting this mode, so one
      // mode's channels cluster (warm key caches, mode-specific images);
      // first channel of a mode lands on its static home slot among the
      // image-holding candidates.
      std::size_t best = devices_.size();
      for (const auto& [uid, rec] : channels_)
        if (rec.open && rec.info.mode == mode && placeable(rec.device))
          if (best == devices_.size() || device_load(rec.device) < device_load(best))
            best = rec.device;
      if (best < devices_.size()) return best;
      return cands[static_cast<std::size_t>(mode) % cands.size()];
    }
  }
  return 0;
}

std::optional<std::pair<std::size_t, ChannelInfo>> Engine::place_channel(ChannelMode mode,
                                                                         top::KeyId key,
                                                                         unsigned tag_len,
                                                                         unsigned nonce_len) {
  std::size_t first = pick_device(mode);
  if (first >= devices_.size()) {
    // No placeable device in the fleet (all tombstoned/draining/failed).
    last_rr_ = top::make_error(top::ControlError::kNoCoreAvailable);
    return std::nullopt;
  }
  for (std::size_t k = 0; k < devices_.size(); ++k) {
    std::size_t idx = (first + k) % devices_.size();
    if (!placeable(idx)) continue;
    auto info = devices_[idx]->open_channel(mode, key, tag_len, nonce_len);
    last_rr_ = devices_[idx]->last_error();
    if (info) {
      if (placement_ == Placement::kRoundRobin)
        rr_next_[static_cast<std::size_t>(image_for_mode(mode))] = idx + 1;
      return std::make_pair(idx, *info);
    }
    // Key errors are global (keys are broadcast): trying another device
    // cannot help, so fail fast with the real error code.
    if (top::return_error(last_rr_) == top::ControlError::kNoKey) break;
  }
  return std::nullopt;
}

Channel Engine::open_channel(ChannelMode mode, top::KeyId key, unsigned tag_len,
                             unsigned nonce_len, std::uint16_t tenant) {
  if (tenant != 0 && !tenants_.known(tenant))
    throw std::invalid_argument("Engine::open_channel: unknown tenant id " +
                                std::to_string(tenant));
  auto placed = place_channel(mode, key, tag_len, nonce_len);
  if (!placed) return Channel{};
  std::uint64_t uid = next_channel_uid_++;
  channels_[uid] = ChannelRecord{placed->first, placed->second, {}, true, false, tenant};
  return Channel(this, uid, placed->first, placed->second);
}

void Engine::release_channel(std::uint64_t uid) {
  auto it = channels_.find(uid);
  if (it == channels_.end() || !it->second.open) return;
  if (devices_[it->second.device]) devices_[it->second.device]->close_channel(it->second.info.id);
  it->second.open = false;
}

const ChannelStats* Engine::channel_stats(std::uint64_t uid) const {
  auto it = channels_.find(uid);
  return it == channels_.end() ? nullptr : &it->second.stats;
}

const Engine::ChannelRecord* Engine::channel_record(std::uint64_t uid) const {
  auto it = channels_.find(uid);
  return it == channels_.end() ? nullptr : &it->second;
}

void Engine::ensure_submittable(const ChannelRecord& rec) const {
  if (rec.orphaned || !rec.open)
    throw DeviceRemovedError(
        "Engine::submit: channel's device was removed from the fleet and the channel could "
        "not be migrated (no surviving device had a free slot)");
  if (draining_[rec.device] && !removal_in_progress_)
    throw DeviceDrainingError("Engine::submit: device " + devices_[rec.device]->name() +
                              " (slot " + std::to_string(rec.device) +
                              ") is draining and accepts no new work");
}

Completion Engine::submit(const Channel& ch, JobSpec spec) {
  if (!ch.valid() || ch.engine_ != this)
    throw std::invalid_argument("Engine::submit: invalid or foreign channel handle");
  // Route through the engine's record, not the handle's open-time
  // snapshot: migration may have moved the channel since.
  ChannelRecord& rec = channels_.at(ch.uid_);
  ensure_submittable(rec);
  // Tenant metering throws the typed rate/quota rejection before any side
  // effects, so a refused submit leaves no trace in the stats.
  tenants_.on_submit(rec.tenant, 1, max_cycle());
  spec.channel = rec.info;

  auto st = std::make_shared<detail::JobState>();
  st->id = next_job_++;
  st->device = rec.device;
  st->channel_uid = ch.uid_;

  if (rec.stats.submitted == 0) rec.stats.first_submit_cycle = devices_[st->device]->now();
  ++rec.stats.submitted;
  rec.stats.payload_bytes += spec.payload.size();

  if (keep_specs_) st->spec = std::make_unique<JobSpec>(spec);
  st->device_job = devices_[st->device]->submit(std::move(spec));
  track(st);
  return Completion(this, st);
}

void Engine::track(std::shared_ptr<detail::JobState> st) {
  inflight_[st->device].push_back(std::move(st));
  ++inflight_count_;
}

Completion Engine::submit_encrypt(const Channel& ch, Bytes iv_or_nonce, Bytes aad,
                                  Bytes plaintext, unsigned priority) {
  JobSpec spec;
  spec.decrypt = false;
  spec.iv_or_nonce = std::move(iv_or_nonce);
  spec.aad = std::move(aad);
  spec.payload = std::move(plaintext);
  spec.priority = priority;
  return submit(ch, std::move(spec));
}

Completion Engine::submit_decrypt(const Channel& ch, Bytes iv_or_nonce, Bytes aad,
                                  Bytes ciphertext, Bytes tag, unsigned priority) {
  JobSpec spec;
  spec.decrypt = true;
  spec.iv_or_nonce = std::move(iv_or_nonce);
  spec.aad = std::move(aad);
  spec.payload = std::move(ciphertext);
  spec.tag = std::move(tag);
  spec.priority = priority;
  return submit(ch, std::move(spec));
}

std::vector<Completion> Engine::submit_batch(const Channel& ch, std::vector<JobSpec> specs) {
  if (!ch.valid() || ch.engine_ != this)
    throw std::invalid_argument("Engine::submit_batch: invalid or foreign channel handle");

  std::vector<Completion> completions;
  completions.reserve(specs.size());
  if (specs.empty()) return completions;

  // One channel-record lookup and one stats pass for the whole burst.
  ChannelRecord& rec = channels_.at(ch.uid_);
  ensure_submittable(rec);
  // Batches admit atomically: either the tenant has tokens and quota
  // headroom for the whole burst, or the typed rejection refuses all of it
  // before any side effects.
  tenants_.on_submit(rec.tenant, specs.size(), max_cycle());
  const std::size_t device_index = rec.device;
  Device& dev = *devices_[device_index];
  if (rec.stats.submitted == 0) rec.stats.first_submit_cycle = dev.now();
  rec.stats.submitted += specs.size();
  for (JobSpec& spec : specs) {
    spec.channel = rec.info;
    rec.stats.payload_bytes += spec.payload.size();
  }

  // Spec retention copies the burst before the device consumes it.
  std::vector<JobSpec> retained;
  if (keep_specs_) retained = specs;

  std::vector<DeviceJobId> device_jobs = dev.submit_batch(specs);
  for (std::size_t i = 0; i < device_jobs.size(); ++i) {
    auto st = std::make_shared<detail::JobState>();
    st->id = next_job_++;
    st->device = device_index;
    st->channel_uid = ch.uid_;
    st->device_job = device_jobs[i];
    if (keep_specs_) st->spec = std::make_unique<JobSpec>(std::move(retained[i]));
    track(st);
    completions.push_back(Completion(this, std::move(st)));
  }
  return completions;
}

std::vector<Completion> Engine::submit_batch(const Channel& ch, std::span<const JobSpec> specs) {
  return submit_batch(ch, std::vector<JobSpec>(specs.begin(), specs.end()));
}

void Engine::finish_job(detail::JobState& st, const JobResult& result) {
  // `result` may alias the device's own bookkeeping, so copy first and
  // only forget() once nothing reads through the reference anymore.
  st.result = result;
  st.done = true;
  ++completed_jobs_;

  auto it = channels_.find(st.channel_uid);
  if (it != channels_.end()) {
    // Tenant in-flight is released before callbacks fire, so a callback
    // that resubmits (decrypt round-trip) replaces this job's slot
    // instead of stacking on top of it.
    tenants_.on_complete(it->second.tenant);
    ChannelStats& s = it->second.stats;
    ++s.completed;
    if (!result.auth_ok) ++s.failed;
    s.rejections += result.rejections;
    // A job rejected unrecoverably (e.g. its channel was closed while it
    // queued) completes with accept_cycle still 0: it has no retry or
    // service latency to account.
    if (result.accept_cycle >= result.submit_cycle && result.accept_cycle > 0) {
      s.retry_latency_cycles += result.accept_cycle - result.submit_cycle;
      s.service_latency_cycles += result.complete_cycle - result.accept_cycle;
    }
    s.last_complete_cycle = std::max(s.last_complete_cycle, result.complete_cycle);
  }
  st.spec.reset();  // retained only while recovery might need it
  if (devices_[st.device]) devices_[st.device]->forget(st.device_job);

  // Fire callbacks exactly once: detach the list before invoking so a
  // callback registering further work cannot re-trigger this batch.
  auto callbacks = std::move(st.callbacks);
  st.callbacks.clear();
  for (auto& fn : callbacks) fn(st.result);
}

void Engine::deliver() {
  // A callback may legally re-enter the engine — submit, open or close a
  // channel, wait() on another job (nested rounds and nested deliveries),
  // remove a device — so each job is detached from its list, and leaves
  // the in-flight count, before its callbacks run, and every pick re-reads
  // the fleet. A callback observing idle()/inflight() thus still sees its
  // unfired siblings counted.
  for (;;) {
    std::size_t best = devices_.size();
    JobId best_id = 0;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      if (!devices_[d]) continue;
      // While the device's monotone completion counter stays put, the
      // entries a scan already passed are still incomplete: resume there.
      // An unchanged counter on a fully scanned list skips the device in
      // O(1); a moved one (a completion anywhere: a round, a submit that
      // failed at the seam) rescans from the front.
      const std::uint64_t count = devices_[d]->completions();
      Scan& scan = scans_[d];
      if (count == Device::kCompletionsUnknown || count != scan.count) scan = Scan{0, count};
      const auto& list = inflight_[d];
      while (scan.incomplete < list.size()) {
        const JobResult* r = devices_[d]->result(list[scan.incomplete]->device_job);
        if (r != nullptr && r->complete) break;
        ++scan.incomplete;
      }
      if (scan.incomplete == list.size()) continue;
      // Lists are ascending by JobId, so the first complete entry is this
      // device's minimum; the fleet minimum is the next delivery.
      if (best == devices_.size() || list[scan.incomplete]->id < best_id) {
        best = d;
        best_id = list[scan.incomplete]->id;
      }
    }
    if (best == devices_.size()) return;
    auto& list = inflight_[best];
    const auto pos = list.begin() + static_cast<std::ptrdiff_t>(scans_[best].incomplete);
    std::shared_ptr<detail::JobState> st = std::move(*pos);
    list.erase(pos);
    --inflight_count_;
    finish_job(*st, *devices_[best]->result(st->device_job));
  }
}

void Engine::ensure_pool() {
  if (pool_ || workers_ < 2) return;
  for (SimDevice* sim : sim_devices_)
    if (sim) {
      pool_ = std::make_unique<WorkerPool>(workers_);
      return;
    }
}

template <class Op>
void Engine::for_each_device(const Op& op) {
  if (pool_)
    pool_->run(devices_.size(), [this, &op](std::size_t d) {
      if (sim_devices_[d]) op(d, *devices_[d]);
    });
  for (std::size_t d = 0; d < devices_.size(); ++d)
    if (devices_[d] && !(pool_ && sim_devices_[d])) op(d, *devices_[d]);
}

void Engine::round(sim::Cycle max_cycles) {
  // Pass 1: every controller runs its scheduling round at the current
  // cycle and every clock moves one cycle. Devices are independent, so
  // pumping them all before any clock moves is indistinguishable from
  // pump-then-tick per device. A device that stayed quiet also reports how
  // many cycles it stays inert (0 if it acted, has no burst seam, or the
  // cap is one), taken before its tick. A round that moved the fleet by
  // one cycle therefore costs one pass (one pool barrier).
  horizon_.resize(devices_.size());
  for_each_device([this, max_cycles](std::size_t d, Device& dev) {
    if (!dev.supports_quiet_burst()) {
      dev.step();
      horizon_[d] = 0;
      return;
    }
    const bool acted = dev.pump_round();
    horizon_[d] = acted || max_cycles < 2 ? 0 : dev.quiet_horizon(max_cycles);
    dev.advance_quiet(1);
  });
  // Pass 2: only when the whole fleet is inert for two or more cycles do
  // the clocks go on together to the fleet-min horizon, so sibling clocks
  // never drift and every later submit lands on the same cycle stamp a
  // per-cycle run would give it.
  sim::Cycle q = max_cycles;
  for (std::size_t d = 0; d < devices_.size(); ++d)
    if (devices_[d]) q = std::min(q, horizon_[d]);
  if (q >= 2)
    for_each_device([q](std::size_t, Device& dev) { dev.advance_quiet(q - 1); });
  deliver();
}

void Engine::step() { round(1); }

void Engine::run(sim::Cycle n) {
  for (sim::Cycle i = 0; i < n; ++i) step();
}

void Engine::advance_to(sim::Cycle target) {
  // Step while anything is in flight (completions must keep firing in
  // order), then let the now-idle devices jump the remaining quiet gap.
  // Work stranded on failed (frozen) devices can never finish — stop
  // stepping rather than spinning; the caller recovers via
  // remove_device(). The stride is capped at the distance to `target` so
  // a quiet burst never overshoots an arrival boundary: pacing relies on
  // submits landing at the cycle the workload scheduled them for.
  while (!idle() && max_cycle() < target) {
    round(target - max_cycle());
    if (inflight_only_on_failed()) break;
  }
  for_each_device([target](std::size_t, Device& d) { d.advance_to(target); });
  deliver();
}

std::size_t Engine::pump(std::size_t max_rounds) {
  const std::uint64_t before = completed_jobs_;
  for (std::size_t i = 0; i < max_rounds && !idle(); ++i) step();
  return static_cast<std::size_t>(completed_jobs_ - before);
}

bool Engine::idle() const {
  if (inflight_count_ != 0) return false;
  for (const auto& d : devices_)
    if (d && !d->idle()) return false;
  return true;
}

void Engine::wait_all(sim::Cycle max_cycles) {
  sim::Cycle start = max_cycle();
  while (!idle()) {
    if (max_cycle() - start > max_cycles)
      throw std::runtime_error("Engine::wait_all: jobs did not complete within max_cycles");
    round(kQuietStride);
    // Checked on freshly-delivered state (any completion visible before a
    // device froze has just been delivered): every device still holding
    // in-flight work has failed, and stepping will never finish it.
    if (!idle() && inflight_only_on_failed())
      throw EngineError("Engine::wait_all: " + std::to_string(inflight_count_) +
                        " job(s) stranded on failed device(s); call remove_device() to "
                        "migrate and resubmit them");
  }
}

bool Engine::inflight_only_on_failed() const {
  if (inflight_count_ == 0) return false;
  for (std::size_t d = 0; d < devices_.size(); ++d)
    if (devices_[d] && !inflight_[d].empty() && !devices_[d]->failed()) return false;
  return true;
}

sim::Cycle Engine::max_cycle() const {
  sim::Cycle m = 0;
  for (const auto& d : devices_)
    if (d) m = std::max(m, d->now());
  return m;
}

sim::Cycle Engine::min_busy_cycle() const {
  // Only devices with work in flight can still deliver completions; an
  // idle device's (possibly lagging) clock does not gate the watermark.
  bool any = false;
  sim::Cycle m = 0;
  for (const auto& d : devices_) {
    if (!d || d->inflight() == 0) continue;
    m = any ? std::min(m, d->now()) : d->now();
    any = true;
  }
  return any ? m : max_cycle();
}

bool Engine::last_image_holder(std::size_t index) const {
  if (!device_alive(index)) return false;
  for (const auto& [uid, rec] : channels_) {
    if (!rec.open || rec.orphaned) continue;
    const reconfig::CoreImage img = image_for_mode(rec.info.mode);
    if (devices_[index]->slots_with_image(img) == 0) continue;
    bool elsewhere = false;
    for (std::size_t i = 0; i < devices_.size() && !elsewhere; ++i)
      if (i != index && device_alive(i) && devices_[i]->slots_with_image(img) > 0)
        elsewhere = true;
    if (!elsewhere) return true;
  }
  return false;
}

std::size_t Engine::inflight() const {
  std::size_t n = 0;
  for (const auto& d : devices_)
    if (d) n += d->inflight();
  return n;
}

std::uint64_t Engine::reconfigurations() const {
  std::uint64_t n = 0;
  for (const auto& d : devices_)
    if (d) n += d->reconfigurations();
  return n;
}

std::uint64_t Engine::reconfig_stall_cycles() const {
  std::uint64_t n = 0;
  for (const auto& d : devices_)
    if (d) n += d->reconfig_stall_cycles();
  return n;
}

std::uint64_t Engine::reconfigurations_to(reconfig::CoreImage img) const {
  std::uint64_t n = 0;
  for (const auto& d : devices_)
    if (d) n += d->reconfigurations_to(img);
  return n;
}

// ---- dynamic membership -----------------------------------------------------

std::size_t Engine::alive_devices() const {
  std::size_t n = 0;
  for (const auto& d : devices_)
    if (d) ++n;
  return n;
}

std::vector<std::size_t> Engine::failed_devices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (devices_[i] && devices_[i]->failed()) out.push_back(i);
  return out;
}

void Engine::begin_drain(std::size_t index) {
  if (!device_alive(index))
    throw std::out_of_range("Engine::begin_drain: no device at slot " + std::to_string(index));
  draining_[index] = 1;
}

void Engine::cancel_drain(std::size_t index) {
  if (!device_alive(index))
    throw std::out_of_range("Engine::cancel_drain: no device at slot " + std::to_string(index));
  draining_[index] = 0;
}

bool Engine::draining(std::size_t index) const {
  return index < draining_.size() && draining_[index] != 0;
}

void Engine::inject_fault(std::size_t index, sim::Cycle kill_at_cycle) {
  if (!device_alive(index))
    throw std::out_of_range("Engine::inject_fault: no device at slot " + std::to_string(index));
  keep_specs_ = true;  // stranded jobs must be recoverable
  if (auto* already = dynamic_cast<FaultyDevice*>(devices_[index].get())) {
    already->schedule_kill(kill_at_cycle);
    return;
  }
  auto wrapped = std::make_unique<FaultyDevice>(std::move(devices_[index]), kill_at_cycle);
  // sim introspection keeps seeing through the wrapper
  sim_devices_[index] = dynamic_cast<SimDevice*>(wrapped->inner());
  devices_[index] = std::move(wrapped);
}

std::size_t Engine::adopt_device(std::unique_ptr<Device> dev) {
  // Replay engine-provisioned keys (the key table is the provisioning
  // path migrated channels rely on) and join the fleet time base before
  // the device becomes placeable.
  for (const auto& [id, key] : key_table_) dev->provision_key(id, key);
  dev->advance_to(max_cycle());

  SimDevice* sim = dynamic_cast<SimDevice*>(dev.get());
  std::size_t i = 0;
  while (i < devices_.size() && devices_[i]) ++i;
  if (i == devices_.size()) {
    devices_.emplace_back();
    sim_devices_.push_back(nullptr);
    inflight_.emplace_back();
    scans_.emplace_back();
    draining_.push_back(0);
  }
  devices_[i] = std::move(dev);
  sim_devices_[i] = sim;
  // The slot changed occupants: a cached completion count from the old
  // device could alias the new device's count and mask its completions.
  scans_[i] = Scan{};
  draining_[i] = 0;
  ensure_pool();
  return i;
}

std::size_t Engine::add_device(std::vector<reconfig::CoreImage> slot_layout) {
  if (!config_built_)
    throw std::logic_error(
        "Engine::add_device: fleet was adopted, not config-built; pass a Device to the "
        "adopting overload instead");
  top::MccpConfig device_cfg = build_config_.device;
  if (!slot_layout.empty()) device_cfg.slot_images = std::move(slot_layout);
  const std::string name = (build_config_.backend == Backend::kFast ? "fast" : "mccp") +
                           std::to_string(devices_created_++);
  std::unique_ptr<Device> dev;
  if (build_config_.backend == Backend::kFast)
    dev = std::make_unique<FastDevice>(device_cfg, name);
  else
    dev = std::make_unique<SimDevice>(device_cfg, name);
  return adopt_device(std::move(dev));
}

std::size_t Engine::add_device(std::unique_ptr<Device> device) {
  if (!device) throw std::invalid_argument("Engine::add_device: null device");
  return adopt_device(std::move(device));
}

DrainReport Engine::remove_device(std::size_t index, sim::Cycle max_drain_cycles) {
  if (!device_alive(index))
    throw std::out_of_range("Engine::remove_device: no device at slot " + std::to_string(index));
  if (alive_devices() <= 1)
    throw std::logic_error("Engine::remove_device: cannot remove the last device in the fleet");

  DrainReport rep;
  rep.device_index = index;
  draining_[index] = 1;
  removal_in_progress_ = true;
  struct ClearFlag {
    bool& flag;
    ~ClearFlag() { flag = false; }
  } clear_removal{removal_in_progress_};

  rep.was_failed = devices_[index]->failed();
  const sim::Cycle drain_start = max_cycle();
  const std::uint64_t completed_before = completed_jobs_;

  if (!rep.was_failed) {
    // Healthy drain: no new placements land on the device (draining), so
    // stepping the fleet retires its in-flight list. Completion callbacks
    // may legally resubmit onto it meanwhile (decrypt round-trips); those
    // drain too.
    while (!inflight_[index].empty() && !devices_[index]->failed()) {
      if (max_cycle() - drain_start > max_drain_cycles)
        throw EngineError("Engine::remove_device: drain of device " + devices_[index]->name() +
                          " exceeded " + std::to_string(max_drain_cycles) +
                          " cycles; still draining — retry or raise max_drain_cycles");
      step();
    }
    rep.was_failed = devices_[index]->failed();  // died mid-drain
  }
  if (rep.was_failed)
    // Flush completions the device produced before its kill cycle, so only
    // genuinely stranded jobs remain on its list.
    deliver();
  rep.drain_cycles = max_cycle() - drain_start;
  rep.completed_during_drain = completed_jobs_ - completed_before;

  // Migrate the device's channels to survivors (uid order: deterministic).
  // Keys were broadcast at provision time and are replayed onto added
  // devices, so the survivor already holds each channel's key.
  for (auto& [uid, rec] : channels_) {
    if (!rec.open || rec.device != index) continue;
    auto placed =
        place_channel(rec.info.mode, rec.info.key_id, rec.info.tag_len, rec.info.nonce_len);
    if (!placed) {
      rec.open = false;
      rec.orphaned = true;
      ++rep.orphaned_channels;
      continue;
    }
    if (!rep.was_failed) devices_[index]->close_channel(rec.info.id);
    rec.device = placed->first;
    rec.info = placed->second;
    ++rep.migrated_channels;
  }

  // Resubmit stranded jobs in submission order (the in-flight list is
  // append-ordered), onto each channel's post-migration device — per
  // channel the device sees them in the original order, and delivery
  // stays ascending-JobId, so the in-order contract holds. Jobs without a
  // retained spec or a surviving channel are lost: they complete failed,
  // after the loop so their callbacks observe the fully-migrated fleet.
  auto stranded = std::move(inflight_[index]);
  inflight_[index].clear();
  scans_[index] = Scan{};
  std::vector<std::shared_ptr<detail::JobState>> lost;
  for (std::shared_ptr<detail::JobState>& st : stranded) {
    auto cit = channels_.find(st->channel_uid);
    ChannelRecord* rec = cit != channels_.end() ? &cit->second : nullptr;
    if (st->spec && rec != nullptr && rec->open && !rec->orphaned) {
      JobSpec spec = *st->spec;  // keep the retained copy: devices can fail twice
      spec.channel = rec->info;
      st->device = rec->device;
      ++st->resubmissions;
      st->device_job = devices_[rec->device]->submit(std::move(spec));
      // Keep the destination list ascending by JobId: a migrated job's id
      // predates everything submitted since, and deliver() (first complete
      // entry is the device's minimum) and the delivery-order contract
      // rely on sorted in-flight lists.
      auto& dst = inflight_[rec->device];
      auto pos = std::lower_bound(
          dst.begin(), dst.end(), st->id,
          [](const std::shared_ptr<detail::JobState>& a, JobId id) { return a->id < id; });
      dst.insert(pos, std::move(st));
      scans_[rec->device] = Scan{};  // the insert may precede the scanned prefix
      ++rep.resubmitted_jobs;
    } else {
      lost.push_back(std::move(st));
    }
  }
  rep.lost_jobs = lost.size();
  for (std::shared_ptr<detail::JobState>& st : lost) {
    --inflight_count_;
    JobResult r;
    r.complete = true;
    r.auth_ok = false;
    finish_job(*st, r);
  }

  // Tombstone the slot; indices of the survivors are untouched.
  draining_[index] = 0;
  sim_devices_[index] = nullptr;
  devices_[index].reset();
  return rep;
}

}  // namespace mccp::host
