#include "trace.h"

#include <cstdio>
#include <cstring>

#include "stats.h"

namespace e2e {

namespace {

std::string ModuleOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, batch_});
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order on the one driving thread.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const char* name, size_t from) const {
  std::vector<double> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::TotalMs(const char* name, size_t from) const {
  double total_us = 0;
  for (double d : DurationsUs(name, from)) total_us += d;
  return total_us / 1e3;
}

std::map<std::string, double> Tracer::SelfMsByModule(int32_t root) const {
  std::map<std::string, double> out;
  if (root < 0 || static_cast<size_t>(root) >= spans_.size()) return out;
  std::vector<char> inside(spans_.size(), 0);
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inside[i] = static_cast<int32_t>(i) == root ||
                (s.parent >= root && inside[static_cast<size_t>(s.parent)]);
    if (!inside[i]) continue;
    int64_t dur = s.end_ns - s.start_ns;
    self[i] += dur;
    if (static_cast<int32_t>(i) != root) {
      self[static_cast<size_t>(s.parent)] -= dur;
    }
  }
  for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
    if (inside[i]) {
      out[ModuleOf(spans_[i].name)] += static_cast<double>(self[i]) / 1e6;
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path, int32_t root) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_ms\": {");
  bool first = true;
  for (const auto& [module, ms] : SelfMsByModule(root)) {
    std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", module.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"batch\": %u}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.batch,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
