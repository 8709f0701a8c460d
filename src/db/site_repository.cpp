#include "db/site_repository.hpp"

namespace vdce::db {

void SiteRepository::register_site_hosts(const net::Topology& topology) {
  for (common::HostId hid : topology.site(site_).hosts) {
    const net::Host& h = topology.host(hid);
    ResourceRecord rec;
    rec.host = h.id;
    rec.site = h.site;
    rec.host_name = h.spec.name;
    rec.ip = h.spec.ip;
    rec.arch = h.spec.arch;
    rec.os = h.spec.os;
    rec.machine_type = h.spec.machine_type;
    rec.speed_mflops = h.spec.speed_mflops;
    rec.total_memory_mb = h.spec.memory_mb;
    rec.up = h.state.up;
    (void)resources_.register_host(std::move(rec));
  }
}

}  // namespace vdce::db
