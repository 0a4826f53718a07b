#include "engine/aggregates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/string_util.h"

namespace saql {

namespace {

class SumAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    Result<double> d = v.ToDouble();
    if (!d.ok()) return;
    sum_ += *d;
    all_int_ = all_int_ && v.is_int();
  }
  Value Finish() const override {
    if (all_int_) return Value(static_cast<int64_t>(sum_));
    return Value(sum_);
  }

 private:
  double sum_ = 0;
  bool all_int_ = true;
};

class AvgAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    Result<double> d = v.ToDouble();
    if (!d.ok()) return;
    sum_ += *d;
    ++count_;
  }
  Value Finish() const override {
    if (count_ == 0) return Value::Null();
    return Value(sum_ / static_cast<double>(count_));
  }

 private:
  double sum_ = 0;
  size_t count_ = 0;
};

class CountAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (!v.is_null()) ++count_;
  }
  Value Finish() const override {
    return Value(static_cast<int64_t>(count_));
  }

 private:
  size_t count_ = 0;
};

class MinAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    if (best_.is_null()) {
      best_ = v;
      return;
    }
    Result<int> c = v.Compare(best_);
    if (c.ok() && *c < 0) best_ = v;
  }
  Value Finish() const override { return best_; }

 private:
  Value best_;
};

class MaxAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    if (best_.is_null()) {
      best_ = v;
      return;
    }
    Result<int> c = v.Compare(best_);
    if (c.ok() && *c > 0) best_ = v;
  }
  Value Finish() const override { return best_; }

 private:
  Value best_;
};

class StdDevAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    Result<double> d = v.ToDouble();
    if (!d.ok()) return;
    ++count_;
    double delta = *d - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (*d - mean_);
  }
  Value Finish() const override {
    if (count_ < 2) return Value(0.0);
    return Value(std::sqrt(m2_ / static_cast<double>(count_)));
  }

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

class SetAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    set_.insert(v.ToString());
  }
  Value Finish() const override { return Value(set_); }

 private:
  StringSet set_;
};

class CountDistinctAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    set_.insert(v.ToString());
  }
  Value Finish() const override {
    return Value(static_cast<int64_t>(set_.size()));
  }

 private:
  StringSet set_;
};

class MedianAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    Result<double> d = v.ToDouble();
    if (!d.ok()) return;
    samples_.push_back(*d);
  }
  Value Finish() const override {
    if (samples_.empty()) return Value::Null();
    std::vector<double> sorted = samples_;
    size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(mid),
                     sorted.end());
    double hi = sorted[mid];
    if (sorted.size() % 2 == 1) return Value(hi);
    double lo =
        *std::max_element(sorted.begin(), sorted.begin() + static_cast<long>(mid));
    return Value((lo + hi) / 2.0);
  }

 private:
  std::vector<double> samples_;
};

/// Most frequent value in the window; ties break toward the smallest
/// value so results are deterministic.
class TopAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    ++counts_[v.ToString()];
  }
  Value Finish() const override {
    if (counts_.empty()) return Value::Null();
    const std::string* best = nullptr;
    size_t best_count = 0;
    for (const auto& [value, count] : counts_) {
      if (count > best_count) {
        best = &value;
        best_count = count;
      }
    }
    return Value(*best);
  }

 private:
  std::map<std::string, size_t> counts_;
};

}  // namespace

Result<std::unique_ptr<Aggregator>> MakeAggregator(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "sum") return std::unique_ptr<Aggregator>(new SumAggregator());
  if (n == "avg") return std::unique_ptr<Aggregator>(new AvgAggregator());
  if (n == "count") return std::unique_ptr<Aggregator>(new CountAggregator());
  if (n == "min") return std::unique_ptr<Aggregator>(new MinAggregator());
  if (n == "max") return std::unique_ptr<Aggregator>(new MaxAggregator());
  if (n == "stddev") {
    return std::unique_ptr<Aggregator>(new StdDevAggregator());
  }
  if (n == "set") return std::unique_ptr<Aggregator>(new SetAggregator());
  if (n == "count_distinct") {
    return std::unique_ptr<Aggregator>(new CountDistinctAggregator());
  }
  if (n == "median") {
    return std::unique_ptr<Aggregator>(new MedianAggregator());
  }
  if (n == "top") return std::unique_ptr<Aggregator>(new TopAggregator());
  return Status::InvalidArgument("unknown aggregate '" + name + "'");
}

}  // namespace saql
