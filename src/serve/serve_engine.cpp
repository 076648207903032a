#include "serve/serve_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace zi {

ServeConfig ServeConfig::from_env() {
  ServeConfig c;
  c.max_batch = static_cast<int>(getenv_u64("ZI_SERVE_MAX_BATCH", 4));
  c.max_new_tokens =
      static_cast<std::int64_t>(getenv_u64("ZI_SERVE_MAX_NEW", 8));
  if (const char* tier = std::getenv("ZI_SERVE_KV_TIER")) {
    c.kv_tier = parse_kv_tier(tier);
  }
  if (const char* log = std::getenv("ZI_SERVE_LOG")) c.request_log = log;
  return c;
}

ServeEngine::ServeEngine(StreamEngine& engine, DecodableModel& model,
                         ServeConfig config)
    : engine_(engine),
      model_(model),
      config_(std::move(config)),
      kv_(engine.resources(), config_.kv_tier, model.num_decode_layers(),
          model.context_window(), model.kv_dim(), config_.max_batch),
      slots_(static_cast<std::size_t>(config_.max_batch)) {
  ZI_CHECK_MSG(&engine.model().module() == &model.module(),
               "ServeEngine model must be the StreamEngine's model");
  ZI_CHECK(config_.max_batch >= 1 && config_.max_new_tokens >= 1);
}

std::vector<ServeResult> ServeEngine::run(
    const std::vector<ServeRequest>& requests) {
  if (requests.empty()) {
    report_ = aggregate_requests({}, 0.0);
    return {};
  }
  const std::int64_t window = model_.context_window();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& r = requests[i];
    ZI_CHECK_MSG(!r.prompt.empty(),
                 "request " << r.id << " has an empty prompt");
    ZI_CHECK_MSG(static_cast<std::int64_t>(r.prompt.size()) +
                         config_.max_new_tokens <=
                     window,
                 "request " << r.id << ": prompt " << r.prompt.size() << " + "
                            << config_.max_new_tokens
                            << " new tokens exceeds the context window "
                            << window);
    ZI_CHECK_MSG(i == 0 || requests[i - 1].arrival_seconds <=
                               r.arrival_seconds,
                 "arrival_seconds must be non-decreasing");
  }
  Communicator& comm = engine_.comm();
  const auto t0 = std::chrono::steady_clock::now();
  auto now_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (Slot& s : slots_) s = Slot{};
  std::vector<ServeResult> results(requests.size());
  std::vector<RequestReport> reports;
  reports.reserve(requests.size());
  std::ofstream log;
  if (comm.rank() == 0 && !config_.request_log.empty()) {
    log.open(config_.request_log, std::ios::trunc);
    ZI_CHECK_MSG(log.is_open(),
                 "cannot open request log '" << config_.request_log << "'");
  }

  // Admission control vector: [count, id...]; rank 0 fills it from the
  // wall clock, everyone else follows so the collective model step stays
  // in lockstep. Requests admit strictly FIFO (next_req is the queue head
  // and advances identically on every rank).
  std::size_t next_req = 0;
  std::size_t done = 0;
  std::vector<std::int64_t> ctl(static_cast<std::size_t>(config_.max_batch) +
                                1);
  while (done < requests.size()) {
    std::fill(ctl.begin(), ctl.end(), 0);
    if (comm.rank() == 0) {
      int free_slots = 0;
      for (const Slot& s : slots_) free_slots += s.active ? 0 : 1;
      const double now = now_s();
      std::int64_t n = 0;
      while (next_req + static_cast<std::size_t>(n) < requests.size() &&
             n < free_slots &&
             requests[next_req + static_cast<std::size_t>(n)]
                     .arrival_seconds <= now) {
        ctl[static_cast<std::size_t>(1 + n)] =
            requests[next_req + static_cast<std::size_t>(n)].id;
        ++n;
      }
      ctl[0] = n;
    }
    comm.broadcast(std::span<std::int64_t>(ctl), 0);
    for (std::int64_t i = 0; i < ctl[0]; ++i) {
      ZI_CHECK_MSG(ctl[static_cast<std::size_t>(1 + i)] ==
                       requests[next_req].id,
                   "admission control vector out of lockstep");
      auto it = std::find_if(slots_.begin(), slots_.end(),
                             [](const Slot& s) { return !s.active; });
      ZI_CHECK(it != slots_.end());
      *it = Slot{};
      it->active = true;
      it->req = next_req++;
      it->admit_seconds = now_s();
    }
    const bool any_active =
        std::any_of(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.active; });
    if (!any_active) {
      // Nothing arrived yet (open-loop gap): idle tick, no model work —
      // the traced prefetcher never sees a perturbed step.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }

    step_model(requests);

    // First-token timestamps, then eviction of completed requests.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.active) continue;
      if (s.generated.size() == 1 && s.first_token_seconds == 0.0) {
        s.first_token_seconds = now_s();
      }
      if (static_cast<std::int64_t>(s.generated.size()) <
          config_.max_new_tokens) {
        continue;
      }
      const ServeRequest& r = requests[s.req];
      RequestReport rep;
      rep.request_id = r.id;
      rep.tokens_in = static_cast<std::int64_t>(r.prompt.size());
      rep.tokens_out = static_cast<std::int64_t>(s.generated.size());
      rep.queue_seconds = s.admit_seconds - r.arrival_seconds;
      rep.prefill_seconds = s.first_token_seconds - s.admit_seconds;
      rep.decode_seconds = now_s() - s.first_token_seconds;
      results[s.req] = ServeResult{r.id, std::move(s.generated), rep};
      reports.push_back(rep);
      if (log.is_open()) log << rep.to_json_line() << '\n';
      s = Slot{};
      ++done;
    }
  }

  report_ = aggregate_requests(reports, now_s());
  if (log.is_open()) log << report_.to_json_line() << '\n';
  std::sort(results.begin(), results.end(),
            [](const ServeResult& a, const ServeResult& b) {
              return a.id < b.id;
            });
  return results;
}

namespace {

// Lends each active slot's KV cache for one layer, in slot order.
class SlotKv final : public KvLender {
 public:
  SlotKv(TieredKvCache& cache, std::int64_t layer,
         std::span<const int> slots, std::span<const DecodeSegment> segments)
      : cache_(cache), layer_(layer), slots_(slots), segments_(segments) {}

  KvLayerView acquire(std::size_t s) override {
    return cache_.acquire(slots_[s], layer_, segments_[s].start_pos);
  }
  void release(std::size_t s) override {
    cache_.release(slots_[s], layer_, segments_[s].start_pos,
                   segments_[s].rows);
  }

 private:
  TieredKvCache& cache_;
  std::int64_t layer_;
  std::span<const int> slots_;
  std::span<const DecodeSegment> segments_;
};

}  // namespace

void ServeEngine::step_model(const std::vector<ServeRequest>& requests) {
  ZI_TRACE_SPAN("serve", "decode_step");
  StreamCoordinator& coord = engine_.coordinator();
  coord.begin_iteration();

  // Stack every active slot's new rows, in slot order: a prefilling slot
  // its whole prompt from position 0, a decoding slot the one token it
  // produced last step.
  std::vector<int> slots;
  std::vector<DecodeSegment> segments;
  std::vector<std::int32_t> tokens;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.active) continue;
    slots.push_back(static_cast<int>(i));
    if (!s.prefilled) {
      const std::vector<std::int32_t>& prompt = requests[s.req].prompt;
      segments.push_back({static_cast<std::int64_t>(prompt.size()), 0});
      tokens.insert(tokens.end(), prompt.begin(), prompt.end());
    } else {
      segments.push_back({1, s.pos});
      tokens.push_back(s.last_token);
    }
  }

  // Each phase is one stacked model call, so its weights are gathered (and
  // widened) once per step.
  Tensor x = model_.embed_rows(tokens, segments);

  // Layer phase: LayerNorms, projections, MLP and residuals run once over
  // the stack; attention pages each slot's KV cache in slot order.
  for (std::int64_t l = 0; l < model_.num_decode_layers(); ++l) {
    SlotKv kv(kv_, l, slots, segments);
    x = model_.decode_layer(l, x, segments, kv);
  }

  // Head phase: final layernorm + LM head over each slot's last row only,
  // greedy argmax per slot.
  const std::int64_t hidden = x.dim(1);
  Tensor last({static_cast<std::int64_t>(segments.size()), hidden},
              DType::kF32);
  std::int64_t end = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    end += segments[s].rows;
    std::copy_n(x.data<float>() + (end - 1) * hidden, hidden,
                last.data<float>() + static_cast<std::int64_t>(s) * hidden);
  }
  const Tensor logits = model_.lm_logits(last);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    Slot& slot = slots_[static_cast<std::size_t>(slots[s])];
    const std::int32_t tok =
        StreamEngine::argmax_row(logits, static_cast<std::int64_t>(s));
    slot.pos += segments[s].rows;
    slot.prefilled = true;
    slot.last_token = tok;
    slot.generated.push_back(tok);
  }
  coord.end_iteration();
}

}  // namespace zi
