#include "src/store/persist.hpp"

#include <cstdio>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/env/environment.hpp"
#include "src/install/installer.hpp"
#include "src/ramble/expansion.hpp"
#include "src/support/hash.hpp"
#include "src/support/log.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/node.hpp"
#include "src/yaml/parser.hpp"

namespace benchpark::store {

namespace {

constexpr std::string_view kInstallKind = "install";
constexpr std::string_view kExperimentKind = "experiment";
constexpr std::string_view kMetaKind = "meta";

yaml::EmitOptions emit_opts() {
  yaml::EmitOptions opts;
  // Persisted values that look like numbers/booleans/dates must stay
  // strings under any YAML reader, not just ours.
  opts.quote_numeric_strings = true;
  return opts;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {spec: <node>, index: {hash: <node>, ...}} — the self-contained
/// closure concrete_spec_from_node needs to rebuild the spec.
void add_closure(const spec::Spec& s, yaml::Node& index) {
  const std::string hash = s.dag_hash();
  if (index.has(hash)) return;
  index[hash] = env::concrete_spec_to_node(s);
  for (const auto& d : s.dependencies()) add_closure(d, index);
}

void put_spec_closure(yaml::Node& root, const spec::Spec& s) {
  root["spec"] = env::concrete_spec_to_node(s);
  yaml::Node index = yaml::Node::make_mapping();
  add_closure(s, index);
  root["index"] = std::move(index);
}

spec::Spec spec_from_closure(const yaml::Node& root) {
  return env::concrete_spec_from_node(root.at("spec"), root.at("index"));
}

install::InstallSource source_from_name(std::string_view name) {
  if (name == "cache") return install::InstallSource::binary_cache;
  if (name == "external") return install::InstallSource::external;
  if (name == "installed") return install::InstallSource::already;
  return install::InstallSource::source_build;
}

void warn_skip(std::string_view kind, const std::string& key,
               const char* what) {
  support::Log::warn("store: skipping " + std::string(kind) + " record '" +
                     key + "': " + what);
}

}  // namespace

// -------------------------------------------------------------- caches

namespace {

/// How one cache maps onto journal records: its record kind, the meta key
/// its counters persist under with each counter's YAML field (in
/// persisted order), and the per-entry payload codec. Entries go through
/// the cache's own export_entries()/restore(); every record also carries
/// the entry's insert "sequence".
template <typename Entry, typename Stats>
struct CacheRecords {
  std::string_view kind;
  std::string_view stats_key;
  std::vector<std::pair<const char*, std::size_t Stats::*>> counters;
  std::string (*record_key)(const Entry&);
  void (*encode)(const Entry&, yaml::Node&);
  Entry (*decode)(const std::string& record_key, const yaml::Node&);
};

using BinaryEntry = buildcache::CacheEntry;
using BinaryStats = buildcache::CacheStats;
using ConcretizeEntry = concretizer::ConcretizationCache::Entry;
using TemplateEntry = ramble::TemplateCache::Entry;
using Stats = support::SnapshotCacheStats;

const CacheRecords<BinaryEntry, BinaryStats> kBinaryRecords{
    "binary",
    "binary.stats",
    {{"hits", &BinaryStats::hits},
     {"misses", &BinaryStats::misses},
     {"pushes", &BinaryStats::pushes},
     {"retries", &BinaryStats::retries},
     {"evictions", &BinaryStats::evictions}},
    [](const BinaryEntry& e) { return e.dag_hash; },
    [](const BinaryEntry& e, yaml::Node& n) {
      n["short_spec"] = yaml::Node(e.short_spec);
      n["size_bytes"] = yaml::Node(static_cast<long long>(e.size_bytes));
    },
    [](const std::string& key, const yaml::Node& n) {
      return BinaryEntry{
          key, n.at("short_spec").as_string(),
          static_cast<std::uint64_t>(n.at("size_bytes").as_int())};
    }};

const CacheRecords<ConcretizeEntry, Stats> kConcretizeRecords{
    "concretize",
    "concretize.stats",
    {support::kSnapshotCacheCounters.begin(),
     support::kSnapshotCacheCounters.end()},
    [](const ConcretizeEntry& e) { return e.key; },
    [](const ConcretizeEntry& e, yaml::Node& n) {
      put_spec_closure(n, *e.value);
    },
    [](const std::string& key, const yaml::Node& n) {
      return ConcretizeEntry{
          key, std::make_shared<const spec::Spec>(spec_from_closure(n))};
    }};

/// Template records are keyed by a hash of the text (script-sized keys
/// stay out of the journal index); the compiled form is a pure function
/// of the text, so only the text is persisted and warm start recompiles.
/// "template.stats" has never carried invalidations.
const CacheRecords<TemplateEntry, Stats> kTemplateRecords{
    "template",
    "template.stats",
    {support::kSnapshotCacheCounters.begin(),
     support::kSnapshotCacheCounters.end() - 1},
    [](const TemplateEntry& e) { return support::hash_base32(e.key); },
    [](const TemplateEntry& e, yaml::Node& n) {
      n["text"] = yaml::Node(e.key);
    },
    [](const std::string&, const yaml::Node& n) {
      std::string text = n.at("text").as_string();
      auto compiled = std::make_shared<const ramble::CompiledTemplate>(text);
      return TemplateEntry{std::move(text), std::move(compiled)};
    }};

template <typename Cache, typename Entry, typename Stats>
void save_cache(Store& store, const Cache& cache,
                const CacheRecords<Entry, Stats>& records) {
  const auto opts = emit_opts();
  for (const Entry& entry : cache.export_entries()) {
    yaml::Node n = yaml::Node::make_mapping();
    records.encode(entry, n);
    n["sequence"] = yaml::Node(static_cast<long long>(entry.sequence));
    store.put(records.kind, records.record_key(entry), yaml::emit(n, opts));
  }
  const Stats stats = cache.stats();
  yaml::Node n = yaml::Node::make_mapping();
  for (const auto& [field, counter] : records.counters) {
    n[field] = yaml::Node(static_cast<long long>(stats.*counter));
  }
  store.put(kMetaKind, records.stats_key, yaml::emit(n, opts));
}

/// Bulk warm start of one cache; returns the entries loaded. Records that
/// fail to parse are skipped with a warning and counted in `skipped`.
template <typename Cache, typename Entry, typename Stats>
std::size_t load_cache(const Store& store, Cache& cache,
                       const CacheRecords<Entry, Stats>& records,
                       std::size_t& skipped) {
  std::vector<Entry> entries;
  store.for_each(records.kind, [&](const std::string& key,
                                   const std::string& value) {
    try {
      yaml::Node n = yaml::parse(value);
      Entry entry = records.decode(key, n);
      entry.sequence = static_cast<std::uint64_t>(n.at("sequence").as_int());
      entries.push_back(std::move(entry));
    } catch (const std::exception& e) {
      ++skipped;
      warn_skip(records.kind, key, e.what());
    }
  });
  Stats stats;
  if (auto meta = store.get(kMetaKind, records.stats_key)) {
    try {
      yaml::Node n = yaml::parse(*meta);
      Stats parsed;
      for (const auto& [field, counter] : records.counters) {
        parsed.*counter = static_cast<std::size_t>(n.at(field).as_int());
      }
      stats = parsed;
    } catch (const std::exception& e) {
      ++skipped;
      warn_skip(kMetaKind, std::string(records.stats_key), e.what());
    }
  }
  const std::size_t loaded = entries.size();
  cache.restore(std::move(entries), stats);
  return loaded;
}

}  // namespace

WarmStartReport warm_start_global_caches(const StoreHandle& store) {
  WarmStartReport report;
  if (!store || !store->begin_warm_start()) return report;
  report.attempted = true;
  report.concretize_entries =
      load_cache(*store, concretizer::ConcretizationCache::global(),
                 kConcretizeRecords, report.skipped_records);
  report.template_entries =
      load_cache(*store, ramble::TemplateCache::global(), kTemplateRecords,
                 report.skipped_records);
  return report;
}

void persist_global_caches(const StoreHandle& store) {
  if (!store) return;
  save_cache(*store, concretizer::ConcretizationCache::global(),
             kConcretizeRecords);
  save_cache(*store, ramble::TemplateCache::global(), kTemplateRecords);
}

std::size_t warm_binary_cache(const StoreHandle& store,
                              buildcache::BinaryCache& cache) {
  std::size_t skipped = 0;  // warned per record; the API reports loads
  return store ? load_cache(*store, cache, kBinaryRecords, skipped) : 0;
}

void persist_binary_cache(const StoreHandle& store,
                          const buildcache::BinaryCache& cache) {
  if (store) save_cache(*store, cache, kBinaryRecords);
}

// -------------------------------------------------------- install tree

std::size_t warm_install_tree(const StoreHandle& store,
                              install::InstallTree& tree) {
  if (!store) return 0;
  std::size_t loaded = 0;
  store->for_each(kInstallKind, [&](const std::string& key,
                                    const std::string& value) {
    if (tree.find(key) != nullptr) return;  // fresher in-process record
    try {
      yaml::Node n = yaml::parse(value);
      install::InstallRecord r;
      r.spec = spec_from_closure(n);
      r.prefix = n.at("prefix").as_string();
      r.source = source_from_name(n.at("source").as_string());
      r.simulated_seconds = n.at("simulated_seconds").as_double();
      r.arch_flags = n.at("arch_flags").as_string_or("");
      r.attempts = static_cast<int>(n.at("attempts").as_int_or(1));
      if (n.has("retry_wait_seconds")) {
        r.retry_wait_seconds = n.at("retry_wait_seconds").as_double();
      }
      if (n.has("build_args")) {
        r.build_args = n.at("build_args").as_string_list();
      }
      tree.add(std::move(r));
      ++loaded;
    } catch (const std::exception& e) {
      warn_skip(kInstallKind, key, e.what());
    }
  });
  return loaded;
}

void persist_install_tree(const StoreHandle& store,
                          const install::InstallTree& tree) {
  if (!store) return;
  const auto opts = emit_opts();
  for (const install::InstallRecord* r : tree.all()) {
    yaml::Node n = yaml::Node::make_mapping();
    put_spec_closure(n, r->spec);
    n["prefix"] = yaml::Node(r->prefix);
    n["source"] = yaml::Node(std::string(install_source_name(r->source)));
    n["simulated_seconds"] = yaml::Node(fmt_double(r->simulated_seconds));
    n["arch_flags"] = yaml::Node(r->arch_flags);
    n["attempts"] = yaml::Node(static_cast<long long>(r->attempts));
    n["retry_wait_seconds"] = yaml::Node(fmt_double(r->retry_wait_seconds));
    if (!r->build_args.empty()) {
      yaml::Node args = yaml::Node::make_sequence();
      for (const auto& a : r->build_args) args.push_back(yaml::Node(a));
      n["build_args"] = std::move(args);
    }
    store->put(kInstallKind, r->spec.dag_hash(), yaml::emit(n, opts));
  }
}

// --------------------------------------------------------- experiments

std::optional<ExperimentRecord> load_experiment(const StoreHandle& store,
                                                std::string_view key) {
  if (!store) return std::nullopt;
  auto value = store->get(kExperimentKind, key);
  if (!value) return std::nullopt;
  try {
    yaml::Node n = yaml::parse(*value);
    ExperimentRecord r;
    r.success = n.at("success").as_bool();
    r.timed_out = n.at("timed_out").as_bool();
    r.attempts = static_cast<int>(n.at("attempts").as_int());
    r.retry_wait_seconds = n.at("retry_wait_seconds").as_double();
    r.runtime_seconds = n.at("runtime_seconds").as_double();
    r.output = n.at("output").as_string_or("");
    return r;
  } catch (const std::exception& e) {
    warn_skip(kExperimentKind, std::string(key), e.what());
    return std::nullopt;
  }
}

void save_experiment(const StoreHandle& store, std::string_view key,
                     const ExperimentRecord& record) {
  if (!store) return;
  yaml::Node n = yaml::Node::make_mapping();
  n["success"] = yaml::Node(record.success);
  n["timed_out"] = yaml::Node(record.timed_out);
  n["attempts"] = yaml::Node(static_cast<long long>(record.attempts));
  n["retry_wait_seconds"] = yaml::Node(fmt_double(record.retry_wait_seconds));
  n["runtime_seconds"] = yaml::Node(fmt_double(record.runtime_seconds));
  n["output"] = yaml::Node(record.output);
  store->put(kExperimentKind, key, yaml::emit(n, emit_opts()));
}

}  // namespace benchpark::store
