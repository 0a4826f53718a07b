#include "collect/entity_factory.h"

#include <algorithm>

namespace saql {

namespace {

std::vector<std::string> RoleExecutables(HostRole role) {
  switch (role) {
    case HostRole::kWorkstation:
      return {"outlook.exe", "excel.exe", "winword.exe", "chrome.exe",
              "firefox.exe", "explorer.exe", "teams.exe", "svchost.exe"};
    case HostRole::kMailServer:
      return {"exchange.exe", "smtpsvc.exe", "w3wp.exe", "svchost.exe"};
    case HostRole::kDatabaseServer:
      return {"sqlservr.exe", "sqlagent.exe", "sqlwriter.exe",
              "svchost.exe", "cmd.exe"};
    case HostRole::kDomainController:
      return {"lsass.exe", "ntds.exe", "dns.exe", "svchost.exe"};
    case HostRole::kWebServer:
      return {"apache.exe", "php.exe", "logger.exe", "rotatelogs.exe",
              "svchost.exe"};
  }
  return {"svchost.exe"};
}

std::vector<std::string> RoleDirectories(HostRole role) {
  switch (role) {
    case HostRole::kWorkstation:
      return {"C:\\Users\\user\\Documents\\", "C:\\Users\\user\\Downloads\\",
              "C:\\Windows\\Temp\\", "C:\\Program Files\\Office\\"};
    case HostRole::kMailServer:
      return {"C:\\Exchange\\Mailbox\\", "C:\\Exchange\\Queue\\",
              "C:\\Windows\\Temp\\"};
    case HostRole::kDatabaseServer:
      return {"C:\\MSSQL\\Data\\", "C:\\MSSQL\\Log\\", "C:\\MSSQL\\Backup\\",
              "C:\\Windows\\Temp\\"};
    case HostRole::kDomainController:
      return {"C:\\Windows\\NTDS\\", "C:\\Windows\\SYSVOL\\",
              "C:\\Windows\\Temp\\"};
    case HostRole::kWebServer:
      return {"/var/www/html/", "/var/log/apache/", "/tmp/"};
  }
  return {"C:\\Windows\\Temp\\"};
}

std::vector<std::string> FileNamesForRole(HostRole role) {
  switch (role) {
    case HostRole::kDatabaseServer:
      return {"master.mdf", "orders.mdf", "orders.ldf", "tempdb.mdf",
              "audit.log", "config.ini"};
    case HostRole::kWebServer:
      return {"index.php", "access.log", "error.log", "app.conf",
              "session.dat"};
    default:
      return {"report.docx", "budget.xlsx", "notes.txt", "setup.log",
              "cache.dat", "prefs.ini"};
  }
}

}  // namespace

EntityFactory::EntityFactory(HostProfile profile, uint64_t seed)
    : profile_(std::move(profile)), next_pid_(1000) {
  role_exes_ = RoleExecutables(profile_.role);
  dirs_ = RoleDirectories(profile_.role);
  std::mt19937_64 rng(seed);
  // A stable pool of peers this host talks to.
  std::uniform_int_distribution<int> octet(2, 250);
  for (int i = 0; i < 12; ++i) {
    intranet_peers_.push_back("10.10.0." + std::to_string(octet(rng)));
  }
  for (int i = 0; i < 8; ++i) {
    internet_peers_.push_back(std::to_string(octet(rng)) + "." +
                              std::to_string(octet(rng)) + "." +
                              std::to_string(octet(rng)) + "." +
                              std::to_string(octet(rng)));
  }
}

ProcessEntity EntityFactory::ProcessByName(const std::string& exe_name) {
  for (const auto& [exe, pid] : pid_table_) {
    if (exe == exe_name) {
      ProcessEntity p;
      p.exe_name = exe_name;
      p.pid = pid;
      p.user = profile_.role == HostRole::kWorkstation ? "user" : "SYSTEM";
      return p;
    }
  }
  pid_table_.emplace_back(exe_name, next_pid_);
  ProcessEntity p;
  p.exe_name = exe_name;
  p.pid = next_pid_;
  p.user = profile_.role == HostRole::kWorkstation ? "user" : "SYSTEM";
  next_pid_ += 4;
  return p;
}

ProcessEntity EntityFactory::RandomProcess(std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick(0, role_exes_.size() - 1);
  return ProcessByName(role_exes_[pick(*rng)]);
}

ProcessEntity EntityFactory::SystemProcess(std::mt19937_64* rng) {
  (void)rng;
  return ProcessByName("svchost.exe");
}

std::string EntityFactory::RandomFilePath(std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> dir_pick(0, dirs_.size() - 1);
  std::vector<std::string> names = FileNamesForRole(profile_.role);
  std::uniform_int_distribution<size_t> name_pick(0, names.size() - 1);
  return dirs_[dir_pick(*rng)] + names[name_pick(*rng)];
}

NetworkEntity EntityFactory::RandomPeer(std::mt19937_64* rng,
                                        double intranet_bias) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int64_t> port(1024, 65000);
  NetworkEntity n;
  n.src_ip = profile_.ip;
  n.src_port = port(*rng);
  if (coin(*rng) < intranet_bias) {
    std::uniform_int_distribution<size_t> pick(0,
                                               intranet_peers_.size() - 1);
    n.dst_ip = intranet_peers_[pick(*rng)];
    std::uniform_int_distribution<int> svc(0, 3);
    const int64_t ports[4] = {445, 389, 1433, 443};
    n.dst_port = ports[svc(*rng)];
  } else {
    std::uniform_int_distribution<size_t> pick(0,
                                               internet_peers_.size() - 1);
    n.dst_ip = internet_peers_[pick(*rng)];
    n.dst_port = 443;
  }
  return n;
}

std::vector<HostProfile> MakeEnterpriseHosts(int num_workstations) {
  std::vector<HostProfile> hosts;
  for (int i = 0; i < num_workstations; ++i) {
    HostProfile h;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "ws-%02d", i + 1);
    h.agent_id = buf;
    h.role = HostRole::kWorkstation;
    h.ip = "10.10.1." + std::to_string(10 + i);
    hosts.push_back(std::move(h));
  }
  hosts.push_back(
      HostProfile{"mail-server-01", HostRole::kMailServer, "10.10.0.5"});
  hosts.push_back(
      HostProfile{"db-server-01", HostRole::kDatabaseServer, "10.10.0.9"});
  hosts.push_back(
      HostProfile{"dc-01", HostRole::kDomainController, "10.10.0.2"});
  hosts.push_back(
      HostProfile{"web-server-01", HostRole::kWebServer, "10.10.0.7"});
  return hosts;
}

}  // namespace saql
