//===- support/Metrics.cpp - named counters and histograms ---------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"

using namespace ramloc;

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

std::string MetricsRegistry::toJson(bool Pretty) const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonWriter W(Pretty);
  W.beginObject();
  W.field("schema", "ramloc-metrics-v1");
  W.key("counters").beginObject();
  for (const auto &[Name, C] : Counters)
    W.field(Name, C->value());
  W.endObject();
  W.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    Histogram::Stats S = H->stats();
    W.key(Name).beginObject();
    W.field("count", S.Count);
    W.field("sum", S.Sum);
    W.field("min", S.Min);
    W.field("max", S.Max);
    W.field("mean", S.mean());
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return std::move(W).str();
}

MetricsRegistry &ramloc::globalMetrics() {
  static MetricsRegistry G;
  return G;
}
