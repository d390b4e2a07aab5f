#include "metrics.h"

#include <cstdio>

#include "util/json.h"

namespace wallbench {

std::string MetricSet::Missing(std::span<const MetricDef> defs) const {
  std::string missing;
  for (const MetricDef& d : defs) {
    if (values_.count(std::string(d.name)) == 0) {
      if (!missing.empty()) missing += ' ';
      missing += d.name;
    }
  }
  return missing;
}

std::string MetricSet::ToJson(std::span<const MetricDef> defs) const {
  mmdb::JsonWriter w;
  w.BeginObject();
  for (const MetricDef& d : defs) {
    auto it = values_.find(std::string(d.name));
    if (it == values_.end()) continue;
    w.Key(d.name);
    w.BeginObject();
    w.Key("value");
    w.Double(it->second);
    w.Key("unit");
    w.String(d.unit);
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

std::string MetricSet::ToText(std::span<const MetricDef> defs) const {
  std::string out;
  for (const MetricDef& d : defs) {
    auto it = values_.find(std::string(d.name));
    if (it == values_.end()) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-40s %14.6g %s\n", d.name.data(),
                  it->second, d.unit.data());
    out += buf;
  }
  return out;
}

}  // namespace wallbench
