"""R2 broadcast-check negative fixtures: direct and transitive shootdowns."""


class Kernel:
    def __init__(self):
        self.mappings = {}

    def tlb_shootdown(self, vma):
        pass

    def munmap(self, vma):
        self.mappings.pop(vma, None)
        self.tlb_shootdown(vma)

    def remove_page(self, vpn):
        self.mappings.pop(vpn, None)
        self.tlb_shootdown(vpn)

    def reclaim(self, count):
        # Transitive witness: reaches the shootdown through remove_page.
        for vpn in list(self.mappings)[:count]:
            self.remove_page(vpn)
