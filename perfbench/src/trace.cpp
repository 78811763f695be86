#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>

#include "malsched/core/optimal.hpp"

namespace perfbench {

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string layer_of(const std::string& span_name) {
  const auto first = span_name.find('.');
  if (span_name.rfind("core.", 0) == 0) {
    const auto second = span_name.find('.', first + 1);
    return span_name.substr(0, second);
  }
  if (span_name.rfind("shard.", 0) == 0 || span_name.rfind("net.", 0) == 0) {
    return "shard_net";
  }
  return span_name.substr(0, first);
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::record(Span span) {
  if (span.id == 0) {
    span.id = next_id();
  }
  if (span.thread == 0) {
    span.thread = this_thread_index();
  }
  const std::uint64_t id = span.id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return id;
}

void Tracer::link_solves() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Waits grouped by (solver, n), sorted by end.
  std::map<std::pair<std::string, std::size_t>, std::vector<std::size_t>>
      waits;
  std::vector<std::size_t> solves;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == "service.scheduler.wait") {
      waits[{span.solver, span.tasks}].push_back(i);
    } else if (span.name == "service.solve" && span.parent == 0) {
      solves.push_back(i);
    }
  }
  for (auto& [key, list] : waits) {
    std::sort(list.begin(), list.end(), [this](std::size_t a, std::size_t b) {
      return spans_[a].end < spans_[b].end;
    });
  }
  std::sort(solves.begin(), solves.end(), [this](std::size_t a, std::size_t b) {
    return spans_[a].end < spans_[b].end;
  });
  std::vector<bool> used(spans_.size(), false);
  for (const std::size_t s : solves) {
    Span& solve = spans_[s];
    const auto it = waits.find({solve.solver, solve.tasks});
    if (it == waits.end()) {
      continue;
    }
    const auto& list = it->second;
    auto pos = std::lower_bound(
        list.begin(), list.end(), solve.end,
        [this](std::size_t w, double end) { return spans_[w].end < end; });
    for (; pos != list.end(); ++pos) {
      const Span& wait = spans_[*pos];
      if (!used[*pos] && wait.start <= solve.start) {
        used[*pos] = true;
        solve.parent = wait.id;
        solve.request = wait.request;
        break;
      }
    }
  }
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    double own = span.end - span.start;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      own -= covered(it->second, span.start, span.end);
    }
    self[layer_of(span.name)] += std::max(0.0, own);
  }
  return self;
}

std::vector<Span> Tracer::spans_named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span);
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  out << "[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"thread\": %u, \"start\": %.9f, \"end\": %.9f",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.thread,
                  s.start, s.end);
    out << "{\"name\": \"" << json_escape(s.name) << "\", " << buf;
    if (!s.solver.empty()) {
      out << ", \"solver\": \"" << json_escape(s.solver)
          << "\", \"tasks\": " << s.tasks;
    }
    out << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_.id = tracer_->next_id();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start = tracer_->now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    span_.end = tracer_->now();
    tracer_->record(std::move(span_));
  }
}

malsched::service::SolverRegistry instrumented_registry(Tracer& tracer) {
  using malsched::service::SolverRegistry;
  const SolverRegistry defaults = SolverRegistry::with_default_solvers();
  const std::size_t crossover =
      malsched::core::OptimalOptions{}.enumeration_crossover;
  SolverRegistry registry;
  for (const std::string& name : defaults.names()) {
    SolverRegistry::SolverInfo info = *defaults.find(name);
    std::string child = "sim." + name;
    if (name == "order-lp-smith") {
      child = "core.order_lp.solve";
    } else if (name == "water-fill-smith") {
      child = "core.water_filling.solve";
    } else if (name == "greedy-heuristic") {
      child = "core.greedy.solve";
    }
    info.fn = [inner = info.fn, &tracer, name, child, crossover](
                  const malsched::core::Instance& instance,
                  const malsched::service::SolveContext& context) {
      ScopedSpan outer(&tracer, "service.solve");
      outer.set_solver(name, instance.size());
      const char* module = child.c_str();
      if (name == "optimal") {
        module = instance.size() <= crossover ? "core.enumeration.solve"
                                              : "core.bnb.solve";
      }
      ScopedSpan work(&tracer, module, outer.id());
      return inner(instance, context);
    };
    registry.register_solver(name, std::move(info));
  }
  return registry;
}

void set_self_shares(RunResult& result,
                     const std::map<std::string, double>& self) {
  double total = 0.0;
  for (const auto& [layer, seconds] : self) {
    total += seconds;
  }
  for (const std::string& layer : reported_layers()) {
    const auto it = self.find(layer);
    const double share =
        (it == self.end() || total <= 0.0) ? 0.0 : it->second / total;
    result.set("trace." + layer + ".self_share", share, "share");
  }
}

}  // namespace perfbench
