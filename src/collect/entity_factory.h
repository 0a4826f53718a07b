#ifndef SAQL_COLLECT_ENTITY_FACTORY_H_
#define SAQL_COLLECT_ENTITY_FACTORY_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/event.h"

namespace saql {

/// Role of a host in the simulated enterprise (Fig. 2 of the paper: mail
/// server, database server, Windows domain controller, client
/// workstations behind a firewall).
enum class HostRole {
  kWorkstation,
  kMailServer,
  kDatabaseServer,
  kDomainController,
  kWebServer,
};

/// Static description of one simulated host.
struct HostProfile {
  std::string agent_id;  ///< "ws-03", "db-server-01", ...
  HostRole role = HostRole::kWorkstation;
  std::string ip;        ///< intranet address
};

/// Produces consistent entities for one host: a process table with stable
/// pids, the host's characteristic executables, file paths, and peer IPs.
/// Determinism: all draws come from the caller-seeded RNG, so a fixed seed
/// reproduces the same enterprise.
class EntityFactory {
 public:
  EntityFactory(HostProfile profile, uint64_t seed);

  const HostProfile& profile() const { return profile_; }

  /// A long-lived process characteristic for the host role (sqlservr.exe on
  /// the DB server, outlook.exe on workstations, ...).
  ProcessEntity RandomProcess(std::mt19937_64* rng);

  /// A stable "system" process that exists on every host.
  ProcessEntity SystemProcess(std::mt19937_64* rng);

  /// Registers/returns a process entity by executable name with a stable
  /// pid per (host, exe).
  ProcessEntity ProcessByName(const std::string& exe_name);

  /// A plausible file path for this host, biased toward the role's data
  /// directories.
  std::string RandomFilePath(std::mt19937_64* rng);

  /// A peer address: intranet peer with probability `intranet_bias`, else a
  /// public internet address.
  NetworkEntity RandomPeer(std::mt19937_64* rng, double intranet_bias = 0.7);

  /// The executables this host role runs (exposed for workload shaping).
  const std::vector<std::string>& role_executables() const {
    return role_exes_;
  }

 private:
  HostProfile profile_;
  std::vector<std::string> role_exes_;
  std::vector<std::string> dirs_;
  std::vector<std::string> intranet_peers_;
  std::vector<std::string> internet_peers_;
  std::vector<std::pair<std::string, int64_t>> pid_table_;
  int64_t next_pid_;
};

/// Builds the enterprise host inventory: `num_workstations` clients plus
/// one mail server, one database server, one domain controller, and one
/// web server — the paper's demo topology.
std::vector<HostProfile> MakeEnterpriseHosts(int num_workstations);

}  // namespace saql

#endif  // SAQL_COLLECT_ENTITY_FACTORY_H_
