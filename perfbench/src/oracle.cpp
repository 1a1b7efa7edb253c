#include "oracle.h"

#include "crypto/aes.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "workload/jobgen.h"
#include "workload/tenantplan.h"

namespace perfbench {

using namespace mccp;
using top::ChannelMode;

namespace {

/// Times one crypto call into `cost` for `mode`.
template <typename Fn>
auto timed(CryptoCost& cost, ChannelMode mode, std::size_t bytes, Fn&& fn) {
  const auto m = static_cast<std::size_t>(mode);
  const std::int64_t t0 = now_ns();
  auto r = fn();
  cost.ns[m] += static_cast<std::uint64_t>(now_ns() - t0);
  ++cost.calls[m];
  cost.bytes[m] += bytes;
  return r;
}

Bytes truncated(const Block128& b, std::size_t n) { return Bytes(b.b.begin(), b.b.begin() + n); }

}  // namespace

std::vector<std::vector<workload::GeneratedJob>> accepted_jobs(const workload::ScenarioSpec& spec) {
  const workload::AdmissionPlan plan = workload::build_admission_plan(spec);
  std::vector<std::vector<workload::GeneratedJob>> jobs(spec.classes.size());
  for (std::size_t ci = 0; ci < spec.classes.size(); ++ci) {
    workload::ClassJobStream stream(spec.classes[ci], spec.seed, ci, spec.max_cycles);
    while (!stream.exhausted()) {
      if (plan.decision(ci, stream.generated()) != qos::Decision::kAccept ||
          plan.drop(ci, stream.generated()))
        stream.skip();
      else
        jobs[ci].push_back(stream.take());
    }
  }
  return jobs;
}

std::vector<std::vector<JobOutput>> replay_expected(const workload::ScenarioSpec& spec,
                                                    CryptoCost& cost) {
  const auto jobs = accepted_jobs(spec);
  std::vector<std::vector<JobOutput>> expected(spec.classes.size());
  for (std::size_t ci = 0; ci < spec.classes.size(); ++ci) {
    const workload::ChannelClass& p = spec.classes[ci].profile;
    const ChannelMode mode = p.mode;
    crypto::AesRoundKeys keys{};
    crypto::GcmKey gcm_key;
    if (mode != ChannelMode::kWhirlpool) {
      keys = crypto::aes_expand_key(workload::class_key(spec.seed, ci, p.key_len));
      gcm_key = crypto::GcmKey(keys);
    }
    const crypto::CcmParams ccm{p.tag_len, p.nonce_len};

    for (const workload::GeneratedJob& g : jobs[ci]) {
      const host::JobSpec& j = g.job;
      const std::size_t n = j.payload.size();
      JobOutput o;
      o.done = o.auth_ok = true;
      switch (mode) {
        case ChannelMode::kGcm: {
          auto sealed = timed(cost, mode, n, [&] {
            return crypto::gcm_seal(gcm_key, j.iv_or_nonce, j.aad, j.payload, p.tag_len);
          });
          o.payload = std::move(sealed.ciphertext);
          o.tag = std::move(sealed.tag);
          if (g.verify)
            o.verify_payload = timed(cost, mode, n, [&] {
                                 return crypto::gcm_open(gcm_key, g.verify_iv, g.verify_aad,
                                                         o.payload, o.tag);
                               }).value_or(Bytes{});
          break;
        }
        case ChannelMode::kCcm: {
          auto sealed = timed(cost, mode, n, [&] {
            return crypto::ccm_seal(keys, ccm, j.iv_or_nonce, j.aad, j.payload);
          });
          o.payload = std::move(sealed.ciphertext);
          o.tag = std::move(sealed.tag);
          if (g.verify)
            o.verify_payload = timed(cost, mode, n, [&] {
                                 return crypto::ccm_open(keys, ccm, g.verify_iv, g.verify_aad,
                                                         o.payload, o.tag);
                               }).value_or(Bytes{});
          break;
        }
        case ChannelMode::kCtr: {
          // The INC core's 16-bit counter walk (what both backends compute).
          const Block128 ctr = Block128::from_span(j.iv_or_nonce);
          o.payload = timed(cost, mode, n,
                            [&] { return crypto::ctr_transform_inc16(keys, ctr, j.payload); });
          if (g.verify)
            o.verify_payload = timed(cost, mode, n, [&] {
              return crypto::ctr_transform_inc16(keys, Block128::from_span(g.verify_iv), o.payload);
            });
          break;
        }
        case ChannelMode::kCbcMac: {
          auto mac_of = [&](const Bytes& msg) {
            crypto::CbcMac mac(keys);
            mac.update_padded(msg);
            return mac.mac();
          };
          o.tag = truncated(timed(cost, mode, n, [&] { return mac_of(j.payload); }), p.tag_len);
          if (g.verify) {
            // Verify re-MACs the message; the device returns a zero
            // placeholder of message length when the tag matches.
            const Bytes again =
                truncated(timed(cost, mode, n, [&] { return mac_of(g.verify_msg); }), p.tag_len);
            if (again == o.tag) o.verify_payload = Bytes(g.verify_msg.size(), 0);
          }
          break;
        }
        case ChannelMode::kWhirlpool: {
          const auto digest = timed(cost, mode, n, [&] { return crypto::whirlpool(j.payload); });
          o.payload.assign(digest.begin(), digest.end());
          break;
        }
      }
      if (g.verify) o.verify_done = o.verify_ok = true;
      expected[ci].push_back(std::move(o));
    }
  }
  return expected;
}

OracleResult check_outputs(const std::vector<std::vector<JobOutput>>& expected,
                           const std::vector<std::vector<JobOutput>>& actual) {
  OracleResult r;
  auto note = [&r](std::size_t ci, std::size_t k, const char* what) {
    if (r.mismatched++ == 0)
      r.first_mismatch = "class " + std::to_string(ci) + " job " + std::to_string(k) + ": " + what;
  };
  for (std::size_t ci = 0; ci < expected.size(); ++ci) {
    const std::size_t have = ci < actual.size() ? actual[ci].size() : 0;
    if (have != expected[ci].size()) {
      r.mismatched += expected[ci].size() > have ? expected[ci].size() - have : have - expected[ci].size();
      if (r.first_mismatch.empty())
        r.first_mismatch = "class " + std::to_string(ci) + ": " + std::to_string(have) +
                           " outputs, expected " + std::to_string(expected[ci].size());
    }
    for (std::size_t k = 0; k < std::min(have, expected[ci].size()); ++k) {
      const JobOutput& e = expected[ci][k];
      const JobOutput& a = actual[ci][k];
      ++r.checked;
      if (!a.done)
        note(ci, k, "never completed");
      else if (!a.auth_ok)
        note(ci, k, "failed authentication");
      else if (a.payload != e.payload || a.tag != e.tag)
        note(ci, k, "output differs from the crypto replay");
      if (!e.verify_done) continue;
      ++r.checked;
      if (!a.verify_done)
        note(ci, k, "round-trip never completed");
      else if (!a.verify_ok || a.verify_payload != e.verify_payload)
        note(ci, k, "round-trip did not restore the plaintext");
    }
  }
  return r;
}

std::uint64_t output_digest(const std::vector<std::vector<JobOutput>>& outputs) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  auto bytes = [&mix](const Bytes& b) {
    const std::uint64_t n = b.size();
    mix(reinterpret_cast<const std::uint8_t*>(&n), sizeof n);
    mix(b.data(), b.size());
  };
  for (const auto& cls : outputs) {
    const std::uint64_t n = cls.size();
    mix(reinterpret_cast<const std::uint8_t*>(&n), sizeof n);
    for (const JobOutput& o : cls) {
      const std::uint8_t flags[4] = {o.done, o.auth_ok, o.verify_done, o.verify_ok};
      mix(flags, sizeof flags);
      bytes(o.payload);
      bytes(o.tag);
      bytes(o.verify_payload);
    }
  }
  return h;
}

}  // namespace perfbench
