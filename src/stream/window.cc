#include "stream/window.h"

namespace saql {

std::string TimeWindow::ToString() const {
  return "[" + FormatTimestamp(start) + ", " + FormatTimestamp(end) + ")";
}

WindowAssigner::WindowAssigner(const WindowSpec& spec)
    : length_(spec.length), slide_(spec.EffectiveSlide()) {
  if (length_ <= 0) length_ = kSecond;
  if (slide_ <= 0) slide_ = length_;
}

std::vector<TimeWindow> WindowAssigner::Assign(Timestamp ts) const {
  std::vector<TimeWindow> out;
  // Newest window start containing ts, aligned to the slide grid; the
  // earliest is the last grid step still after ts - length.
  const Timestamp last_start = ts - ((ts % slide_) + slide_) % slide_;
  const Timestamp span = last_start - (ts - length_);
  if (span <= 0) return out;
  const Timestamp count = (span + slide_ - 1) / slide_;
  out.reserve(static_cast<size_t>(count));
  for (Timestamp start = last_start - (count - 1) * slide_;
       start <= last_start; start += slide_) {
    out.push_back(TimeWindow{start, start + length_});
  }
  return out;
}

}  // namespace saql
