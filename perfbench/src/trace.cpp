#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace perfbench {
namespace {

/// Open spans on this thread, innermost last (the implicit parent chain).
thread_local std::vector<std::uint64_t> tl_open;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord r) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(r));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

parhop::util::Json Tracer::chrome_trace(
    const parhop::util::Json& identity) const {
  using parhop::util::Json;
  Json events = Json::array();
  for (const SpanRecord& s : spans()) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", layer_of(s.name));
    e.set("ph", "X");
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    e.set("pid", 1);
    e.set("tid", s.tid);
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    if (s.request != 0) args.set("request", s.request);
    e.set("args", args);
    events.push_back(e);
  }
  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", identity);
  return doc;
}

std::map<std::string, double> Tracer::layer_self_us(std::uint64_t root) const {
  const std::vector<SpanRecord> all = spans();
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) children[s.parent].push_back(&s);

  std::map<std::string, double> self;
  std::vector<const SpanRecord*> stack;
  for (const SpanRecord* c : children[root]) stack.push_back(c);
  while (!stack.empty()) {
    const SpanRecord* s = stack.back();
    stack.pop_back();
    // Union of the children's intervals clipped to this span: children on
    // other threads may overlap each other.
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord* c : children[s->id]) {
      stack.push_back(c);
      const double b = std::max(c->start_us, s->start_us);
      const double e = std::min(c->end_us, s->end_us);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[layer_of(s->name)] += (s->end_us - s->start_us) - covered;
  }
  return self;
}

Span::Span(Tracer* t, const char* name, std::uint64_t request,
           std::uint64_t parent)
    : t_(t) {
  if (!t_) return;
  rec_.name = name;
  rec_.id = t_->next_id();
  rec_.parent =
      parent != kInherit ? parent : (tl_open.empty() ? 0 : tl_open.back());
  rec_.request = request;
  rec_.tid = thread_index();
  tl_open.push_back(rec_.id);
  rec_.start_us = t_->now_us();
}

Span::~Span() {
  if (!t_) return;
  rec_.end_us = t_->now_us();
  tl_open.pop_back();
  t_->record(std::move(rec_));
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
